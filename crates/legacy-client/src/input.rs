//! Input-file chunking.
//!
//! The client splits the input into chunks of whole records without fully
//! parsing field contents — the minimal work needed to stamp row numbers
//! and keep chunks record-aligned. Validation happens server-side.

use bytes::Buf;

use etlv_protocol::message::RecordFormat;
use etlv_protocol::vartext::records;

use crate::error::ClientError;

/// One outgoing chunk: the first row's 1-based file row number, the record
/// count, and the raw encoded bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputChunk {
    /// 1-based row number of the first record.
    pub base_seq: u64,
    /// Records in this chunk.
    pub record_count: u32,
    /// Raw wire bytes (already in the job's record format).
    pub data: Vec<u8>,
}

/// Split `data` into chunks of at most `chunk_rows` records.
pub fn split_chunks(
    data: &[u8],
    format: RecordFormat,
    chunk_rows: usize,
) -> Result<Vec<InputChunk>, ClientError> {
    match format {
        RecordFormat::Vartext { .. } => split_vartext(data, chunk_rows),
        RecordFormat::Binary => split_binary(data, chunk_rows),
    }
}

fn split_vartext(data: &[u8], chunk_rows: usize) -> Result<Vec<InputChunk>, ClientError> {
    let chunk_rows = chunk_rows.max(1);
    let mut chunks = Vec::new();
    let mut cur = Vec::new();
    let mut count = 0u32;
    let mut next_seq = 1u64;
    let mut base = next_seq;
    for line in records(data) {
        cur.extend_from_slice(line);
        cur.push(b'\n');
        count += 1;
        next_seq += 1;
        if count as usize >= chunk_rows {
            chunks.push(InputChunk {
                base_seq: base,
                record_count: count,
                data: std::mem::take(&mut cur),
            });
            count = 0;
            base = next_seq;
        }
    }
    if count > 0 {
        chunks.push(InputChunk {
            base_seq: base,
            record_count: count,
            data: cur,
        });
    }
    Ok(chunks)
}

fn split_binary(data: &[u8], chunk_rows: usize) -> Result<Vec<InputChunk>, ClientError> {
    let chunk_rows = chunk_rows.max(1);
    let mut chunks = Vec::new();
    let mut buf = data;
    let mut chunk_start = data.len() - buf.remaining();
    let mut count = 0u32;
    let mut next_seq = 1u64;
    let mut base = next_seq;
    while buf.remaining() >= 2 {
        let mut peek = buf;
        let len = peek.get_u16_le() as usize;
        if peek.remaining() < len {
            return Err(ClientError::Input(format!(
                "truncated binary record at offset {}",
                data.len() - buf.remaining()
            )));
        }
        buf.advance(2 + len);
        count += 1;
        next_seq += 1;
        if count as usize >= chunk_rows {
            let end = data.len() - buf.remaining();
            chunks.push(InputChunk {
                base_seq: base,
                record_count: count,
                data: data[chunk_start..end].to_vec(),
            });
            chunk_start = end;
            count = 0;
            base = next_seq;
        }
    }
    if buf.has_remaining() {
        return Err(ClientError::Input(
            "trailing bytes after last binary record".into(),
        ));
    }
    if count > 0 {
        chunks.push(InputChunk {
            base_seq: base,
            record_count: count,
            data: data[chunk_start..].to_vec(),
        });
    }
    Ok(chunks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlv_protocol::data::{LegacyType, Value};
    use etlv_protocol::layout::Layout;
    use etlv_protocol::record::RecordEncoder;

    const VT: RecordFormat = RecordFormat::Vartext {
        delimiter: b'|',
        quote: b'"',
    };

    #[test]
    fn vartext_chunking() {
        let data = b"a|1\nb|2\nc|3\nd|4\ne|5\n";
        let chunks = split_chunks(data, VT, 2).unwrap();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].base_seq, 1);
        assert_eq!(chunks[0].record_count, 2);
        assert_eq!(chunks[0].data, b"a|1\nb|2\n");
        assert_eq!(chunks[1].base_seq, 3);
        assert_eq!(chunks[2].base_seq, 5);
        assert_eq!(chunks[2].record_count, 1);
    }

    #[test]
    fn vartext_handles_crlf_and_no_trailing_newline() {
        let data = b"a|1\r\nb|2";
        let chunks = split_chunks(data, VT, 10).unwrap();
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].record_count, 2);
        assert_eq!(chunks[0].data, b"a|1\nb|2\n");
    }

    #[test]
    fn empty_input_no_chunks() {
        assert!(split_chunks(b"", VT, 10).unwrap().is_empty());
        assert!(split_chunks(b"\n\n", VT, 10).unwrap().is_empty());
        assert!(split_chunks(b"", RecordFormat::Binary, 10)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn binary_chunking_respects_record_boundaries() {
        let layout = Layout::new("L").field("A", LegacyType::Integer);
        let enc = RecordEncoder::new(layout.clone());
        let rows: Vec<Vec<Value>> = (0..5).map(|i| vec![Value::Int(i)]).collect();
        let data = enc.encode_batch(&rows).unwrap();
        let chunks = split_chunks(&data, RecordFormat::Binary, 2).unwrap();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[1].base_seq, 3);
        // Each chunk decodes cleanly on its own.
        let dec = etlv_protocol::record::RecordDecoder::new(layout);
        for c in &chunks {
            let rows = dec.decode_batch(&c.data).unwrap();
            assert_eq!(rows.len(), c.record_count as usize);
        }
    }

    #[test]
    fn binary_truncation_rejected() {
        let layout = Layout::new("L").field("A", LegacyType::Integer);
        let enc = RecordEncoder::new(layout);
        let mut data = enc.encode_batch(&[vec![Value::Int(1)]]).unwrap();
        data.pop();
        assert!(matches!(
            split_chunks(&data, RecordFormat::Binary, 10),
            Err(ClientError::Input(_))
        ));
    }
}
