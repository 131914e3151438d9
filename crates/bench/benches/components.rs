//! Component microbenchmarks: the individual stages the figure benches
//! compose — record codecs, vartext parsing, staged conversion, LZSS
//! compression, SQL cross-compilation, and the credit pool.

use std::time::Duration;

use criterion::{BenchmarkId, Criterion, Throughput};
use etlv_core::convert::{ConvertScratch, DataConverter};
use etlv_core::credit::CreditManager;
use etlv_protocol::data::{Date, Decimal, LegacyType as T, Value};
use etlv_protocol::layout::Layout;
use etlv_protocol::message::RecordFormat;
use etlv_protocol::record::{RecordDecoder, RecordEncoder};
use etlv_protocol::vartext::VartextFormat;

fn sample_rows(n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Str(format!("customer-{i:07}")),
                Value::Date(Date::new(2020, (i % 12 + 1) as u8, (i % 28 + 1) as u8).unwrap()),
                Value::Decimal(Decimal::new((i * 137) as i128, 2)),
            ]
        })
        .collect()
}

fn typed_layout() -> Layout {
    Layout::new("L")
        .field("ID", T::BigInt)
        .field("NAME", T::VarChar(30))
        .field("D", T::Date)
        .field("AMT", T::Decimal(12, 2))
}

fn bench_record_codec(c: &mut Criterion) {
    let layout = typed_layout();
    let rows = sample_rows(1_000);
    let encoder = RecordEncoder::new(layout.clone());
    let decoder = RecordDecoder::new(layout);
    let encoded = encoder.encode_batch(&rows).unwrap();

    let mut group = c.benchmark_group("record_codec");
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("encode_1k_rows", |b| {
        b.iter(|| encoder.encode_batch(&rows).unwrap())
    });
    group.bench_function("decode_1k_rows", |b| {
        b.iter(|| decoder.decode_batch(&encoded).unwrap())
    });
    group.finish();
}

fn bench_vartext(c: &mut Criterion) {
    let fmt = VartextFormat::default();
    let line: Vec<u8> = b"C0001234|some customer name|2020-05-17|1234.56".to_vec();
    let mut data = Vec::new();
    for _ in 0..1_000 {
        data.extend_from_slice(&line);
        data.push(b'\n');
    }
    let mut group = c.benchmark_group("vartext");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("decode_1k_lines", |b| {
        b.iter(|| fmt.decode_lines(&data, Some(4)).unwrap())
    });
    group.finish();
}

fn bench_convert(c: &mut Criterion) {
    let layout = Layout::new("L")
        .field("A", T::VarChar(10))
        .field("B", T::VarChar(30))
        .field("C", T::VarChar(10))
        .field("D", T::VarChar(12));
    let conv = DataConverter::new(
        layout,
        RecordFormat::Vartext {
            delimiter: b'|',
            quote: b'"',
        },
        b'|',
    );
    let mut data = Vec::new();
    for i in 0..1_000 {
        data.extend_from_slice(format!("id{i}|customer name {i}|2020-05-17|1234.56\n").as_bytes());
    }
    let mut group = c.benchmark_group("data_converter");
    group.throughput(Throughput::Bytes(data.len() as u64));
    // The kernel the pipeline runs: one output buffer and one scratch,
    // reused chunk after chunk.
    let mut out = Vec::new();
    let mut scratch = ConvertScratch::new();
    group.bench_function("vartext_chunk_1k_rows", |b| {
        b.iter(|| {
            out.clear();
            conv.convert_into(1, &data, &mut out, &mut scratch).unwrap()
        })
    });

    // Binary conversion does typed decoding + text rendering.
    let typed = typed_layout();
    let encoded = RecordEncoder::new(typed.clone())
        .encode_batch(&sample_rows(1_000))
        .unwrap();
    let conv_bin = DataConverter::new(typed, RecordFormat::Binary, b'|');
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("binary_chunk_1k_rows", |b| {
        b.iter(|| {
            out.clear();
            conv_bin
                .convert_into(1, &encoded, &mut out, &mut scratch)
                .unwrap()
        })
    });
    group.finish();
}

fn bench_compression(c: &mut Criterion) {
    let staged: Vec<u8> = (0..2_000)
        .flat_map(|i| {
            format!(
                "{i}|C{:07}|name{:05}|2020-01-01|payload\n",
                i % 999,
                i % 333
            )
            .into_bytes()
        })
        .collect();
    let compressed = etlv_cloudstore::compress(&staged);
    let mut group = c.benchmark_group("lzss");
    group.throughput(Throughput::Bytes(staged.len() as u64));
    group.bench_function("compress", |b| {
        b.iter(|| etlv_cloudstore::compress(&staged))
    });
    group.bench_function("decompress", |b| {
        b.iter(|| etlv_cloudstore::decompress(&compressed).unwrap())
    });
    group.finish();
    println!(
        "lzss ratio on staged data: {} -> {} bytes ({:.1}%)",
        staged.len(),
        compressed.len(),
        compressed.len() as f64 / staged.len() as f64 * 100.0
    );
}

fn bench_xcompile(c: &mut Criterion) {
    let layout = Layout::new("L")
        .field("CUST_ID", T::VarChar(5))
        .field("CUST_NAME", T::VarChar(50))
        .field("JOIN_DATE", T::VarChar(10));
    let dml = "insert into PROD.CUSTOMER values (trim(:CUST_ID), trim(:CUST_NAME), cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'))";
    let mut group = c.benchmark_group("xcompile");
    group.bench_function("compile_dml", |b| {
        b.iter(|| etlv_core::xcompile::compile_dml(dml, &layout, "STG").unwrap())
    });
    group.bench_function("translate_select", |b| {
        b.iter(|| {
            etlv_core::xcompile::translate_sql(
                "sel A, cast(D as VARCHAR(8) format 'MM/DD/YY') from T where A > 5 order by A",
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_credits(c: &mut Criterion) {
    let mut group = c.benchmark_group("credit_manager");
    group.bench_function("uncontended_acquire_release", |b| {
        let mgr = CreditManager::new(16);
        b.iter(|| {
            let credit = mgr.acquire();
            criterion::black_box(&credit);
        })
    });
    group.bench_with_input(BenchmarkId::new("contended", 8), &8usize, |b, &threads| {
        b.iter_custom(|iters| {
            let mgr = CreditManager::new(4);
            let start = std::time::Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    let mgr = mgr.clone();
                    scope.spawn(move || {
                        for _ in 0..iters / threads as u64 {
                            let _c = mgr.acquire();
                        }
                    });
                }
            });
            start.elapsed()
        })
    });
    group.finish();
}

fn main() {
    let mut criterion = Criterion::default()
        .configure_from_args()
        .sample_size(20)
        .measurement_time(Duration::from_secs(5));
    bench_record_codec(&mut criterion);
    bench_vartext(&mut criterion);
    bench_convert(&mut criterion);
    bench_compression(&mut criterion);
    bench_xcompile(&mut criterion);
    bench_credits(&mut criterion);
    criterion.final_summary();
}
