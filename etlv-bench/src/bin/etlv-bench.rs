//! The untraced runner: the production allocator, no span recording.
//! `--trace 1` hands over to the `etlv-bench-traced` binary beside it.

fn main() {
    std::process::exit(etlv_bench::cli::main(std::time::Instant::now()));
}
