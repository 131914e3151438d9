//! The traced runner: same code as `etlv-bench` under a counting
//! allocator, so `--trace 1` can report allocations per row.

#[global_allocator]
static ALLOC: etlv_bench::trace::CountingAlloc = etlv_bench::trace::CountingAlloc;

fn main() {
    let started = std::time::Instant::now();
    etlv_bench::trace::mark_allocator_installed();
    std::process::exit(etlv_bench::cli::main(started));
}
