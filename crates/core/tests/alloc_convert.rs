//! Proves the conversion kernel's zero-allocation claim: once the output
//! buffer and scratch have grown to the workload's high-water mark (one
//! warm-up chunk), converting further chunks of clean data performs **no**
//! heap allocation at all — for both wire formats. It also gates export
//! encoding: a vartext export chunk allocates only as its output buffer
//! grows, never per field.
//!
//! A counting global allocator gates on a thread-local flag so the
//! measurement ignores allocator traffic from the test harness's other
//! threads. The whole proof lives in a single `#[test]` so nothing else
//! in this binary runs concurrently with the counted window.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use etlv_core::convert::{ConvertScratch, DataConverter};
use etlv_protocol::data::{Date, Decimal, LegacyType as T, Timestamp, Value};
use etlv_protocol::layout::Layout;
use etlv_protocol::message::RecordFormat;
use etlv_protocol::record::{encode_rows, RecordEncoder};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn record(&self) {
        // `try_with` so allocations during thread teardown (after TLS
        // destruction) never panic inside the allocator.
        let counting = COUNTING.try_with(Cell::get).unwrap_or(false);
        if counting {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        self.record();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        self.record();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        self.record();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Count allocations made by `f` on this thread.
fn count_allocs(f: impl FnOnce()) -> u64 {
    COUNTING.with(|c| c.set(true));
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    let after = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(false));
    after - before
}

fn wide_layout() -> Layout {
    Layout::new("ALLOC")
        .field("ID", T::BigInt)
        .field("QTY", T::Integer)
        .field("PRICE", T::Decimal(9, 2))
        .field("RATIO", T::Float)
        .field("NAME", T::VarChar(40))
        .field("CODE", T::Char(8))
        .field("BORN", T::Date)
        .field("SEEN", T::Timestamp)
        .field("BLOB", T::VarByte(16))
}

fn sample_values(i: u64) -> Vec<Value> {
    vec![
        Value::Int(i as i64 * 7919),
        if i.is_multiple_of(5) {
            Value::Null
        } else {
            Value::Int(i as i64 % 1000)
        },
        Value::Decimal(Decimal::new(123450 + i as i128, 2)),
        Value::Float(i as f64 + 0.5),
        Value::Str(format!("customer-{i}")),
        Value::Str("FIXEDLEN".into()),
        Value::Date(Date::new(2012, 1 + (i % 12) as u8, 1 + (i % 28) as u8).unwrap()),
        Value::Timestamp(Timestamp::from_micros(1_600_000_000_000_000 + i as i64)),
        Value::Bytes(vec![0xAB; 1 + (i % 16) as usize]),
    ]
}

#[test]
fn steady_state_convert_loop_does_not_allocate() {
    // --- binary wire format -------------------------------------------
    let layout = wide_layout();
    let encoder = RecordEncoder::new(layout.clone());
    let mut data = Vec::new();
    for i in 0..200 {
        encoder.encode_record(&sample_values(i), &mut data).unwrap();
    }
    let conv = DataConverter::new(layout, RecordFormat::Binary, b'|');
    let mut out = Vec::new();
    let mut scratch = ConvertScratch::new();

    // Warm-up chunk grows every buffer to its high-water mark.
    let warm = conv.convert_into(1, &data, &mut out, &mut scratch).unwrap();
    assert_eq!(warm, 200);
    let expected = out.clone();

    out.clear();
    let allocs = count_allocs(|| {
        let rows = conv
            .convert_into(201, &data, &mut out, &mut scratch)
            .unwrap();
        assert_eq!(rows, 200);
    });
    assert_eq!(
        allocs, 0,
        "binary steady-state convert loop allocated {allocs} times"
    );
    // Same staged bytes as the warm-up modulo the shifted __SEQ prefix.
    let seq_digits = |lo: u64, hi: u64| (lo..=hi).map(|s| s.to_string().len()).sum::<usize>();
    assert_eq!(
        out.len(),
        expected.len() + seq_digits(201, 400) - seq_digits(1, 200)
    );

    // --- vartext wire format ------------------------------------------
    let layout = Layout::new("VT")
        .field("A", T::VarChar(64))
        .field("B", T::VarChar(64))
        .field("C", T::VarChar(64));
    let mut data = Vec::new();
    for i in 0..200 {
        data.extend_from_slice(format!("alpha{i}|\\|escaped|\"\"\n").as_bytes());
    }
    let conv = DataConverter::new(
        layout,
        RecordFormat::Vartext {
            delimiter: b'|',
            quote: b'"',
        },
        b'|',
    );
    let mut out = Vec::new();
    let mut scratch = ConvertScratch::new();
    let warm = conv.convert_into(1, &data, &mut out, &mut scratch).unwrap();
    assert_eq!(warm, 200);

    out.clear();
    let allocs = count_allocs(|| {
        let rows = conv
            .convert_into(201, &data, &mut out, &mut scratch)
            .unwrap();
        assert_eq!(rows, 200);
    });
    assert_eq!(
        allocs, 0,
        "vartext steady-state convert loop allocated {allocs} times"
    );

    // --- vartext export encoding --------------------------------------
    // 200 rows with a field of every legacy type. Each field renders
    // straight into the chunk buffer, so the only allocations are that
    // buffer's growth: its doublings over the first 8 rows, then one
    // reserve sized from them for the other 192 — 10 measured for this
    // 22,924-byte chunk, bound 12. Doubling all the way counted 13, and
    // rendering each typed field through an owned `String` first
    // (`Value::display_text`) 4,085.
    let layout = Layout::new("EXPORT")
        .field("BI", T::ByteInt)
        .field("SI", T::SmallInt)
        .field("I", T::Integer)
        .field("B", T::BigInt)
        .field("F", T::Float)
        .field("DEC", T::Decimal(9, 2))
        .field("C", T::Char(8))
        .field("VC", T::VarChar(40))
        .field("VU", T::VarCharUnicode(40))
        .field("D", T::Date)
        .field("TS", T::Timestamp)
        .field("VB", T::VarByte(16));
    let rows: Vec<Vec<Value>> = (0..200u64)
        .map(|i| {
            let v = sample_values(i);
            vec![
                Value::Int(i as i64 % 100),
                Value::Int(i as i64 * 11),
                v[1].clone(),
                v[0].clone(),
                v[3].clone(),
                v[2].clone(),
                v[5].clone(),
                v[4].clone(),
                Value::Str(format!("é-{i}")),
                v[6].clone(),
                v[7].clone(),
                v[8].clone(),
            ]
        })
        .collect();
    let format = RecordFormat::Vartext {
        delimiter: b'|',
        quote: b'"',
    };
    let mut chunk = Vec::new();
    let allocs = count_allocs(|| chunk = encode_rows(&layout, format, &rows).unwrap());
    assert_eq!(chunk.iter().filter(|&&b| b == b'\n').count(), 200);
    assert!(
        allocs <= 12,
        "vartext export encoding allocated {allocs} times for {} bytes",
        chunk.len()
    );
}
