//! Checkpoint serialization: named tensor collections in a compact binary
//! format with an integrity checksum.
//!
//! The paper's training environment (Google Colab) "crashed every 5 to 7
//! epochs"; the engineering answer is cheap, verifiable checkpoints. The
//! current format (version 2) tags every entry with its storage dtype:
//!
//! ```text
//! magic   : 8 bytes  = "RTCKPT02"
//! count   : u32 LE
//! entry*  : name_len u16 | name utf8 | rank u8 | dims u32* | dtype u8 |
//!           numel u64 | payload (f32 LE*)
//! checksum: u64 LE   = FNV-1a over everything before it
//! ```
//!
//! Checkpoints hold trained weights, and those are f32: every entry
//! [`TensorMap`] writes carries the f32 tag, and an entry tagged f16 or
//! int8 (or with an unknown tag) is rejected with a typed error. Nothing
//! narrower is ever stored — int8 weights are re-quantized from the f32
//! checkpoint when a replica is built (a few milliseconds) and f16 exists
//! only in KV rows.
//!
//! Version 2 is the only format read: any other magic, the untagged
//! version 1 (`"RTCKPT01"`) included, is a typed `Corrupt("bad magic …")`
//! error.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::Path;

use crate::dtype::DType;
use crate::error::TensorError;
use crate::tensor::Tensor;

const MAGIC_V2: &[u8; 8] = b"RTCKPT02";

/// Little-endian cursor over a checkpoint payload; every read is
/// bounds-checked so truncated payloads surface as `Corrupt` errors.
struct Reader<'a> {
    data: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], TensorError> {
        if self.data.len() < n {
            return Err(TensorError::Corrupt(format!("truncated {what}")));
        }
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        Ok(head)
    }

    fn u8(&mut self, what: &str) -> Result<u8, TensorError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16_le(&mut self, what: &str) -> Result<u16, TensorError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    fn u32_le(&mut self, what: &str) -> Result<u32, TensorError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64_le(&mut self, what: &str) -> Result<u64, TensorError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }
}

/// An ordered, named collection of `f32` tensors (a checkpoint section).
///
/// `BTreeMap` keeps serialization deterministic, so identical states
/// produce byte-identical checkpoints (useful for tests and dedup).
#[derive(Default, Clone, Debug)]
pub struct TensorMap {
    entries: BTreeMap<String, Tensor>,
}

impl TensorMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) a named tensor.
    pub fn insert(&mut self, name: impl Into<String>, t: Tensor) {
        self.entries.insert(name.into(), t);
    }

    /// Look up a tensor by name.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.entries.get(name)
    }

    /// Look up a tensor, erroring with the missing name.
    pub fn require(&self, name: &str) -> Result<&Tensor, TensorError> {
        self.entries
            .get(name)
            .ok_or_else(|| TensorError::MissingTensor(name.to_string()))
    }

    /// Number of tensors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate name → tensor in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Tensor)> {
        self.entries.iter()
    }

    /// Names in order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// Serialize to bytes (version-2 format, every entry tagged f32, with
    /// trailing checksum).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC_V2);
        buf.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for (name, t) in &self.entries {
            assert!(name.len() <= u16::MAX as usize, "tensor name too long");
            buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
            buf.extend_from_slice(name.as_bytes());
            let dims = t.dims();
            assert!(dims.len() <= u8::MAX as usize);
            buf.push(dims.len() as u8);
            for &d in dims {
                buf.extend_from_slice(&(d as u32).to_le_bytes());
            }
            buf.push(DType::F32.tag());
            buf.extend_from_slice(&(t.numel() as u64).to_le_bytes());
            for &v in t.data() {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        let sum = fnv1a(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        buf
    }

    /// Deserialize version-2 bytes, verifying magic and checksum. Every
    /// entry must be f32.
    pub fn from_bytes(data: &[u8]) -> Result<Self, TensorError> {
        if data.len() < MAGIC_V2.len() + 4 + 8 {
            return Err(TensorError::Corrupt("payload too short".into()));
        }
        let (body, sum_bytes) = data.split_at(data.len() - 8);
        let stored = u64::from_le_bytes(sum_bytes.try_into().unwrap());
        let computed = fnv1a(body);
        if stored != computed {
            return Err(TensorError::Corrupt(format!(
                "checksum mismatch: stored {stored:#x}, computed {computed:#x}"
            )));
        }
        let mut r = Reader { data: body };
        let magic = r.take(8, "magic")?;
        if magic != MAGIC_V2 {
            return Err(TensorError::Corrupt(format!(
                "bad magic {:?}",
                String::from_utf8_lossy(magic)
            )));
        }
        let count = r.u32_le("count")? as usize;
        let mut map = TensorMap::new();
        for _ in 0..count {
            let name_len = r.u16_le("entry header")? as usize;
            let name = String::from_utf8(r.take(name_len, "name")?.to_vec())
                .map_err(|_| TensorError::Corrupt("non-utf8 tensor name".into()))?;
            let rank = r.u8("rank")? as usize;
            let mut dims = Vec::with_capacity(rank);
            for _ in 0..rank {
                dims.push(r.u32_le("dims")? as usize);
            }
            let tag = r.u8("dtype")?;
            match DType::from_tag(tag) {
                Some(DType::F32) => {}
                Some(other) => {
                    return Err(TensorError::Corrupt(format!(
                        "tensor `{name}` has dtype {other}; checkpoints hold f32 weights only"
                    )))
                }
                None => {
                    return Err(TensorError::Corrupt(format!(
                        "tensor `{name}`: unknown dtype tag {tag}"
                    )))
                }
            }
            let numel = r.u64_le("numel")?;
            // The dims come from the header: a product that overflows is a
            // corrupt checkpoint, never a panic or a wrapped length.
            let expected = dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
            let payload = expected.and_then(|n| n.checked_mul(DType::F32.size_bytes()));
            let (Some(expected), Some(payload)) = (expected, payload) else {
                return Err(TensorError::Corrupt(format!(
                    "tensor `{name}`: dims {dims:?} overflow the address space"
                )));
            };
            if numel != expected as u64 {
                return Err(TensorError::Corrupt(format!(
                    "tensor `{name}`: numel {numel} != dims product {expected}"
                )));
            }
            let values: Vec<f32> = r
                .take(payload, "tensor data")?
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            let t = Tensor::from_vec(values, &dims)
                .map_err(|e| TensorError::Corrupt(format!("bad tensor in checkpoint: {e}")))?;
            map.insert(name, t);
        }
        Ok(map)
    }

    /// Write to a file (atomically via a temp file + rename, so a crash
    /// mid-write never leaves a half-written checkpoint in place).
    pub fn save(&self, path: &Path) -> Result<(), TensorError> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&self.to_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Read from a file.
    pub fn load(path: &Path) -> Result<Self, TensorError> {
        let mut f = std::fs::File::open(path)?;
        let mut buf = Vec::new();
        f.read_to_end(&mut buf)?;
        Self::from_bytes(&buf)
    }
}

/// FNV-1a over a byte slice.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_map() -> TensorMap {
        let mut m = TensorMap::new();
        m.insert("w", Tensor::from_vec(vec![1.0, -2.5, 3.25], &[3]).unwrap());
        m.insert("b", Tensor::scalar(0.5));
        m.insert(
            "emb.table",
            Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[3, 4]).unwrap(),
        );
        m
    }

    /// One hand-built checkpoint entry: what the header claims (`dims`,
    /// `numel`, the dtype `tag`) and the payload bytes actually present.
    struct RawEntry<'a> {
        name: &'a str,
        dims: &'a [u32],
        tag: u8,
        numel: u64,
        payload: Vec<u8>,
    }

    /// Serialize `entry` alone as version 2, with a valid checksum trailer.
    fn crafted(entry: &RawEntry) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC_V2);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&(entry.name.len() as u16).to_le_bytes());
        buf.extend_from_slice(entry.name.as_bytes());
        buf.push(entry.dims.len() as u8);
        for d in entry.dims {
            buf.extend_from_slice(&d.to_le_bytes());
        }
        buf.push(entry.tag);
        buf.extend_from_slice(&entry.numel.to_le_bytes());
        buf.extend_from_slice(&entry.payload);
        let sum = fnv1a(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        buf
    }

    fn expect_corrupt(bytes: &[u8], needle: &str) {
        match TensorMap::from_bytes(bytes) {
            Err(TensorError::Corrupt(msg)) => assert!(msg.contains(needle), "unexpected message: {msg}"),
            other => panic!("expected a Corrupt error naming `{needle}`, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_exact() {
        let m = sample_map();
        let bytes = m.to_bytes();
        let m2 = TensorMap::from_bytes(&bytes).unwrap();
        assert_eq!(m2.len(), 3);
        for (name, t) in m.iter() {
            assert_eq!(m2.get(name).unwrap(), t, "tensor `{name}` differs");
        }
    }

    #[test]
    fn deterministic_bytes() {
        assert_eq!(sample_map().to_bytes(), sample_map().to_bytes());
    }

    #[test]
    fn writes_v2_magic() {
        assert_eq!(&sample_map().to_bytes()[..8], MAGIC_V2);
    }

    /// A well-formed version-1 payload (untagged f32 entries under
    /// `"RTCKPT01"`, valid checksum) is a typed bad-magic error, not a
    /// panic and not a load.
    #[test]
    fn legacy_v1_loads_as_f32() {
        let mut bytes = b"RTCKPT01".to_vec();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.push(b'w');
        bytes.push(1);
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.extend([1.0f32, 2.0].iter().flat_map(|v| v.to_le_bytes()));
        let sum = fnv1a(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        expect_corrupt(&bytes, "bad magic \"RTCKPT01\"");
    }

    #[test]
    fn narrower_dtypes_are_rejected() {
        // Well-formed int8 and f16 entries (what a mixed-dtype writer
        // would have produced): a typed error naming the dtype.
        for (dtype, payload) in [(DType::I8, vec![1u8, 2]), (DType::F16, vec![0, 0x3c, 0, 0xc0])] {
            let bytes = crafted(&RawEntry { name: "q", dims: &[2], tag: dtype.tag(), numel: 2, payload });
            expect_corrupt(&bytes, &dtype.to_string());
        }
    }

    #[test]
    fn unknown_dtype_tag_rejected() {
        let bytes = crafted(&RawEntry { name: "w", dims: &[1], tag: 9, numel: 1, payload: vec![0; 4] });
        expect_corrupt(&bytes, "dtype tag");
    }

    #[test]
    fn overflowing_dims_are_corrupt_not_a_panic() {
        // Four dims of 65536: their product is 2^64.
        let bytes = crafted(&RawEntry { name: "w", dims: &[65536; 4], tag: DType::F32.tag(), numel: 0, payload: vec![] });
        assert_eq!(bytes.len(), 49);
        expect_corrupt(&bytes, "overflow");
        // A product that fits (2^62) whose byte size (× 4) wraps to zero.
        let dims = [65536, 65536, 65536, 16384];
        let bytes = crafted(&RawEntry { name: "w", dims: &dims, tag: DType::F32.tag(), numel: 1 << 62, payload: vec![] });
        expect_corrupt(&bytes, "overflow");
        // A huge but representable size is just a truncated payload.
        let bytes = crafted(&RawEntry { name: "w", dims: &[65536, 65536], tag: DType::F32.tag(), numel: 1 << 32, payload: vec![0; 16] });
        expect_corrupt(&bytes, "truncated");
    }

    #[test]
    fn corruption_detected() {
        let bytes = sample_map().to_bytes();
        let mut bad = bytes.to_vec();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        match TensorMap::from_bytes(&bad) {
            Err(TensorError::Corrupt(msg)) => assert!(msg.contains("checksum")),
            other => panic!("expected checksum error, got {other:?}"),
        }
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample_map().to_bytes();
        for cut in [0, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                TensorMap::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn bad_magic_detected() {
        let bytes = sample_map().to_bytes();
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        // fix checksum so only the magic is wrong
        let body_len = bad.len() - 8;
        let sum = fnv1a(&bad[..body_len]).to_le_bytes();
        bad[body_len..].copy_from_slice(&sum);
        match TensorMap::from_bytes(&bad) {
            Err(TensorError::Corrupt(msg)) => assert!(msg.contains("magic")),
            other => panic!("expected magic error, got {other:?}"),
        }
    }

    #[test]
    fn file_roundtrip_atomic() {
        let dir = std::env::temp_dir().join(format!("rt-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        let m = sample_map();
        m.save(&path).unwrap();
        let m2 = TensorMap::load(&path).unwrap();
        assert_eq!(m2.get("w").unwrap(), m.get("w").unwrap());
        assert!(!path.with_extension("tmp").exists(), "temp file left behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn require_reports_missing_name() {
        let m = sample_map();
        match m.require("nope") {
            Err(TensorError::MissingTensor(n)) => assert_eq!(n, "nope"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_map_roundtrips() {
        let m = TensorMap::new();
        let m2 = TensorMap::from_bytes(&m.to_bytes()).unwrap();
        assert!(m2.is_empty());
    }
}
