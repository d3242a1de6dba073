//! The correctness oracle: a shadow byte model of every blob the benchmark
//! writes, folded in the order of the versions the daemon acknowledged, plus
//! the percentile function the latency metrics use.
//!
//! Payload bytes are never stored: every write's content is a slice of one
//! of two seeded pools with an 8-byte tag in front, so the model keeps only
//! `(offset, len, source)` per version and regenerates any range on demand.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Which seeded pool a payload is cut from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pool {
    /// Text-like words: the codec shrinks these.
    Text,
    /// Uniform random bytes: incompressible.
    Random,
}

/// The two payload pools, generated once from the run's seed.
pub struct Pools {
    text: Vec<u8>,
    random: Vec<u8>,
}

/// SplitMix64: the benchmark's only random source, so a seed fixes every
/// input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}

impl Pools {
    pub fn new(seed: u64, len: usize) -> Self {
        const WORDS: &[&str] = &[
            "blob", "version", "chunk", "provider", "metadata", "segment", "tree", "append",
            "snapshot", "read", "write", "publish", "the", "of", "a", "to", "and", "in", "data",
            "node", "client", "manager", "offset", "range", "leaf", "stripe", "replica",
        ];
        let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(7));
        let mut text = Vec::with_capacity(len + 16);
        while text.len() < len {
            let r = rng.next_u64();
            text.extend_from_slice(WORDS[(r % WORDS.len() as u64) as usize].as_bytes());
            // Numbers keep the text from compressing to nothing.
            if r >> 60 == 0 {
                text.extend_from_slice(((r >> 20) % 100_000).to_string().as_bytes());
            }
            text.push(if (r >> 8).is_multiple_of(13) {
                b'\n'
            } else {
                b' '
            });
        }
        text.truncate(len);
        let mut random = Vec::with_capacity(len);
        while random.len() < len {
            random.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        random.truncate(len);
        Pools { text, random }
    }

    pub fn len(&self) -> usize {
        self.text.len()
    }

    fn pool(&self, pool: Pool) -> &[u8] {
        match pool {
            Pool::Text => &self.text,
            Pool::Random => &self.random,
        }
    }

    /// Materialises a whole payload.
    pub fn payload(&self, src: &Src, len: u64) -> Vec<u8> {
        let mut out = vec![0; len as usize];
        self.fill(src, 0, &mut out);
        out
    }

    /// Writes bytes `rel..rel + out.len()` of the payload `src` into `out`.
    pub fn fill(&self, src: &Src, rel: u64, out: &mut [u8]) {
        let tag = src.tag.to_le_bytes();
        let pool = self.pool(src.pool);
        let mut i = 0;
        while i < out.len() {
            let at = rel as usize + i;
            if at < tag.len() {
                out[i] = tag[at];
                i += 1;
            } else {
                let n = out.len() - i;
                out[i..].copy_from_slice(&pool[src.start + at..src.start + at + n]);
                break;
            }
        }
    }

    /// Picks a source for a payload of `len` bytes (`len <= self.len()`).
    pub fn pick(&self, rng: &mut Rng, pool: Pool, tag: u64, len: u64) -> Src {
        let start = rng.range(0, (self.len() as u64).saturating_sub(len)) as usize;
        Src { pool, start, tag }
    }
}

/// Where a payload's bytes come from: a tag, then a pool slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Src {
    pub pool: Pool,
    pub start: usize,
    pub tag: u64,
}

/// A mutation as the writer issued it, before its version is known.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Append { len: u64, src: Src },
    Write { offset: u64, len: u64, src: Src },
}

#[derive(Debug, Clone, Copy)]
enum Entry {
    Write {
        offset: u64,
        len: u64,
        src: Src,
    },
    /// A version the daemon published on its own (a flat snapshot): same
    /// bytes as its predecessor.
    Flat,
}

/// A broken guarantee the oracle caught.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The same version was acknowledged twice.
    Repeat(u64),
    /// Versions below the highest acknowledged one were never acknowledged.
    Gap { missing: u64 },
    /// A read returned bytes that differ from the model.
    Bytes {
        version: u64,
        offset: u64,
        first_diff: u64,
    },
    /// A read asked the model about a range the version does not hold.
    OutOfModel { version: u64, offset: u64, len: u64 },
    /// One writer was acknowledged a version no newer than its previous one.
    Backwards { previous: u64, version: u64 },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Repeat(v) => write!(f, "version {v} acknowledged twice"),
            Violation::Gap { missing } => write!(f, "version {missing} never acknowledged"),
            Violation::Bytes {
                version,
                offset,
                first_diff,
            } => write!(
                f,
                "read of version {version} at offset {offset} differs from the model at byte {first_diff}"
            ),
            Violation::Backwards { previous, version } => write!(
                f,
                "a writer was acknowledged version {version} after version {previous}"
            ),
            Violation::OutOfModel {
                version,
                offset,
                len,
            } => write!(
                f,
                "range {offset}+{len} of version {version} is outside the model"
            ),
        }
    }
}

/// The shadow model of one blob.
pub struct BlobModel {
    /// `entries[i]` produced version `i + 1`; version 0 is the empty blob.
    entries: Vec<Entry>,
    /// `sizes[v]` is the size of version `v`.
    sizes: Vec<u64>,
    /// Acknowledged versions not yet folded (a predecessor is in flight).
    pending: BTreeMap<u64, Op>,
    /// Whether versions the writer never saw may be daemon flats. Only
    /// sound with one writer per blob, whose acknowledgements arrive in
    /// order.
    single_writer: bool,
    flats: u64,
}

impl BlobModel {
    pub fn new(single_writer: bool) -> Self {
        BlobModel {
            entries: Vec::new(),
            sizes: vec![0],
            pending: BTreeMap::new(),
            single_writer,
            flats: 0,
        }
    }

    /// The newest version whose predecessors are all folded.
    pub fn latest(&self) -> u64 {
        self.entries.len() as u64
    }

    pub fn size(&self, version: u64) -> u64 {
        self.sizes[version as usize]
    }

    /// Versions the model attributes to daemon flats.
    pub fn flats(&self) -> u64 {
        self.flats
    }

    pub fn is_flat(&self, version: u64) -> bool {
        matches!(self.entries[version as usize - 1], Entry::Flat)
    }

    /// The range `version` wrote (empty for a flat).
    pub fn written(&self, version: u64) -> (u64, u64) {
        match self.entries[version as usize - 1] {
            Entry::Write { offset, len, .. } => (offset, len),
            Entry::Flat => (0, 0),
        }
    }

    /// Records that `op` was acknowledged as `version`, folding every
    /// contiguous acknowledgement into the model.
    pub fn ack(&mut self, version: u64, op: Op) -> Result<(), Violation> {
        if version <= self.latest() || self.pending.contains_key(&version) {
            return Err(Violation::Repeat(version));
        }
        if self.single_writer {
            while self.latest() + 1 < version {
                self.entries.push(Entry::Flat);
                let size = *self.sizes.last().expect("sizes starts with version 0");
                self.sizes.push(size);
                self.flats += 1;
            }
        }
        self.pending.insert(version, op);
        while let Some(op) = self.pending.remove(&(self.latest() + 1)) {
            let size = *self.sizes.last().expect("sizes starts with version 0");
            let (offset, len, src) = match op {
                Op::Append { len, src } => (size, len, src),
                Op::Write { offset, len, src } => (offset, len, src),
            };
            self.entries.push(Entry::Write { offset, len, src });
            self.sizes.push(size.max(offset + len));
        }
        Ok(())
    }

    /// Adds `count` daemon flats after the last folded version (flats
    /// published after the writer stopped).
    pub fn add_trailing_flats(&mut self, count: u64) {
        let size = *self.sizes.last().expect("sizes starts with version 0");
        for _ in 0..count {
            self.entries.push(Entry::Flat);
            self.sizes.push(size);
            self.flats += 1;
        }
    }

    /// Checks that every acknowledged version is folded: any acknowledgement
    /// still pending sits above a version nobody acknowledged.
    pub fn finish(&self) -> Result<(), Violation> {
        match self.pending.keys().next() {
            Some(_) => Err(Violation::Gap {
                missing: self.latest() + 1,
            }),
            None => Ok(()),
        }
    }

    /// The bytes `offset..offset + len` of `version`, regenerated from the
    /// pools by walking writes from `version` back until every byte is
    /// covered.
    pub fn expected(
        &self,
        pools: &Pools,
        version: u64,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>, Violation> {
        if version > self.latest() || offset + len > self.size(version) {
            return Err(Violation::OutOfModel {
                version,
                offset,
                len,
            });
        }
        let mut out = vec![0u8; len as usize];
        // Uncovered holes of the requested range, as absolute offsets.
        let mut holes = vec![(offset, offset + len)];
        for entry in self.entries[..version as usize].iter().rev() {
            if holes.is_empty() {
                break;
            }
            let Entry::Write {
                offset: w_off,
                len: w_len,
                src,
            } = entry
            else {
                continue;
            };
            let (w_start, w_end) = (*w_off, w_off + w_len);
            let mut next = Vec::with_capacity(holes.len() + 1);
            for (start, end) in holes {
                let (a, b) = (start.max(w_start), end.min(w_end));
                if a >= b {
                    next.push((start, end));
                    continue;
                }
                pools.fill(
                    src,
                    a - w_start,
                    &mut out[(a - offset) as usize..(b - offset) as usize],
                );
                if start < a {
                    next.push((start, a));
                }
                if b < end {
                    next.push((b, end));
                }
            }
            holes = next;
        }
        // Bytes no write ever covered read back as zeros, as in the blob.
        Ok(out)
    }

    /// Compares a read of `version` at `offset` with the model.
    pub fn check_read(
        &self,
        pools: &Pools,
        version: u64,
        offset: u64,
        got: &[u8],
    ) -> Result<(), Violation> {
        let want = self.expected(pools, version, offset, got.len() as u64)?;
        match want.iter().zip(got).position(|(a, b)| a != b) {
            None => Ok(()),
            Some(i) => Err(Violation::Bytes {
                version,
                offset,
                first_diff: offset + i as u64,
            }),
        }
    }
}

/// The versions one writer was acknowledged, per blob. A writer takes its
/// tickets one after another, so each must be newer than its last.
#[derive(Default)]
pub struct WriterLog(HashMap<usize, u64>);

impl WriterLog {
    pub fn ack(&mut self, blob: usize, version: u64) -> Result<(), Violation> {
        let last = self.0.entry(blob).or_insert(0);
        if version <= *last {
            return Err(Violation::Backwards {
                previous: *last,
                version,
            });
        }
        *last = version;
        Ok(())
    }
}

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample with
/// at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pools() -> Pools {
        Pools::new(7, 1 << 16)
    }

    fn src(pools: &Pools, rng: &mut Rng, tag: u64, len: u64) -> Src {
        pools.pick(rng, Pool::Random, tag, len)
    }

    #[test]
    fn model_matches_a_replayed_byte_array() {
        let pools = pools();
        let mut rng = Rng::new(1);
        let mut model = BlobModel::new(true);
        let mut history: Vec<Vec<u8>> = vec![Vec::new()];
        for v in 1..=40u64 {
            let mut bytes = history.last().unwrap().clone();
            let len = rng.range(8, 3000);
            let s = src(&pools, &mut rng, v, len);
            let payload = pools.payload(&s, len);
            let op = if v % 3 == 0 && !bytes.is_empty() {
                let offset = rng.range(0, bytes.len() as u64);
                let end = (offset + len) as usize;
                if bytes.len() < end {
                    bytes.resize(end, 0);
                }
                bytes[offset as usize..end].copy_from_slice(&payload);
                Op::Write {
                    offset,
                    len,
                    src: s,
                }
            } else {
                bytes.extend_from_slice(&payload);
                Op::Append { len, src: s }
            };
            model.ack(v, op).unwrap();
            history.push(bytes);
        }
        model.finish().unwrap();
        for (v, bytes) in history.iter().enumerate() {
            let v = v as u64;
            assert_eq!(model.size(v), bytes.len() as u64);
            let got = model.expected(&pools, v, 0, bytes.len() as u64).unwrap();
            assert_eq!(&got, bytes, "version {v}");
            if bytes.len() > 100 {
                model.check_read(&pools, v, 50, &bytes[50..100]).unwrap();
            }
        }
    }

    #[test]
    fn a_corrupted_read_buffer_is_flagged() {
        let pools = pools();
        let mut rng = Rng::new(2);
        let mut model = BlobModel::new(false);
        let s = src(&pools, &mut rng, 1, 1000);
        model.ack(1, Op::Append { len: 1000, src: s }).unwrap();
        let mut read = pools.payload(&s, 1000);
        model.check_read(&pools, 1, 0, &read).unwrap();
        read[617] ^= 0x40;
        assert_eq!(
            model.check_read(&pools, 1, 0, &read),
            Err(Violation::Bytes {
                version: 1,
                offset: 0,
                first_diff: 617
            })
        );
        // A shifted window of the right bytes is just as wrong.
        let read = pools.payload(&s, 1000);
        assert!(model.check_read(&pools, 1, 10, &read[9..509]).is_err());
        // Asking past the end of the version is caught, not zero-filled.
        assert!(matches!(
            model.check_read(&pools, 1, 900, &read[..200]),
            Err(Violation::OutOfModel { .. })
        ));
    }

    #[test]
    fn gaps_and_repeats_in_the_version_sequence_are_flagged() {
        let pools = pools();
        let mut rng = Rng::new(3);
        let op = |rng: &mut Rng, tag| Op::Append {
            len: 64,
            src: src(&pools, rng, tag, 64),
        };

        // Concurrent writers: out-of-order acknowledgements fold once the
        // hole fills, and a hole that never fills is a gap.
        let mut model = BlobModel::new(false);
        model.ack(2, op(&mut rng, 2)).unwrap();
        assert_eq!(model.latest(), 0);
        model.ack(1, op(&mut rng, 1)).unwrap();
        assert_eq!(model.latest(), 2);
        model.finish().unwrap();
        model.ack(4, op(&mut rng, 4)).unwrap();
        assert_eq!(model.finish(), Err(Violation::Gap { missing: 3 }));

        // Repeats are caught whether the first copy is folded or pending.
        assert_eq!(model.ack(2, op(&mut rng, 9)), Err(Violation::Repeat(2)));
        assert_eq!(model.ack(4, op(&mut rng, 9)), Err(Violation::Repeat(4)));

        // A single writer's skipped versions are daemon flats: same bytes as
        // their predecessor.
        let mut model = BlobModel::new(true);
        let first = src(&pools, &mut rng, 1, 64);
        model
            .ack(
                1,
                Op::Append {
                    len: 64,
                    src: first,
                },
            )
            .unwrap();
        model.ack(3, op(&mut rng, 3)).unwrap();
        model.finish().unwrap();
        assert_eq!(model.flats(), 1);
        assert!(model.is_flat(2));
        assert_eq!(
            model.expected(&pools, 2, 0, 64).unwrap(),
            pools.payload(&first, 64)
        );
        assert_eq!(model.ack(2, op(&mut rng, 2)), Err(Violation::Repeat(2)));

        // Each writer's own acknowledgements must move forward, per blob.
        let mut log = WriterLog::default();
        log.ack(0, 3).unwrap();
        log.ack(1, 1).unwrap();
        log.ack(0, 5).unwrap();
        assert_eq!(
            log.ack(0, 4),
            Err(Violation::Backwards {
                previous: 5,
                version: 4
            })
        );
        assert!(log.ack(1, 1).is_err());
    }

    #[test]
    fn percentile_matches_hand_computed_values() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 50.0), 5.0);
        assert_eq!(percentile(&ten, 90.0), 9.0);
        assert_eq!(percentile(&ten, 99.0), 10.0);
        assert_eq!(percentile(&ten, 0.0), 1.0);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.0), 990.0);
        assert_eq!(percentile(&thousand, 50.0), 500.0);
        assert_eq!(percentile(&[3.5], 99.0), 3.5);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
