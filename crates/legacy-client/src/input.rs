//! Input-file chunking.
//!
//! The client splits the input into chunks of whole records without fully
//! parsing field contents — the minimal work needed to stamp row numbers
//! and keep chunks record-aligned. Validation happens server-side.

use etlv_protocol::message::RecordFormat;
use etlv_protocol::record::take_record;
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

/// Split `data` into chunks of at most `chunk_rows` records. Vartext
/// records are the lines [`records`] yields, each re-terminated by `\n`;
/// binary records are those [`take_record`] frames, copied whole.
pub fn split_chunks(
    data: &[u8],
    format: RecordFormat,
    chunk_rows: usize,
) -> Result<Vec<InputChunk>, ClientError> {
    let (input, terminator): (Box<dyn Iterator<Item = _>>, &[u8]) = match format {
        RecordFormat::Vartext { .. } => (Box::new(records(data).map(Ok)), b"\n"),
        RecordFormat::Binary => {
            let mut rest = data;
            let framed = std::iter::from_fn(move || {
                let start = data.len() - rest.len();
                (!rest.is_empty()).then(|| match take_record(&mut rest) {
                    Ok(_) => Ok(&data[start..data.len() - rest.len()]),
                    Err(_) => Err(ClientError::Input(format!(
                        "truncated binary record at offset {start}"
                    ))),
                })
            });
            (Box::new(framed), b"")
        }
    };
    let chunk_rows = chunk_rows.max(1);
    let mut chunks: Vec<InputChunk> = Vec::new();
    for (seq, record) in (1u64..).zip(input) {
        let record = record?;
        let chunk = match chunks.last_mut() {
            Some(chunk) if (chunk.record_count as usize) < chunk_rows => chunk,
            _ => {
                chunks.push(InputChunk {
                    base_seq: seq,
                    record_count: 0,
                    data: Vec::new(),
                });
                chunks.last_mut().expect("just pushed")
            }
        };
        chunk.data.extend_from_slice(record);
        chunk.data.extend_from_slice(terminator);
        chunk.record_count += 1;
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
