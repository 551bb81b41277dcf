//! Lightweight integer encodings: run-length, frame-of-reference lanes and
//! bit-packing.
//!
//! [`EncodedInts`] is a live execution representation, not just an at-rest
//! codec: it backs the [`crate::Column::Int64Encoded`] variant that
//! filter/group/join/top-k kernels consume without decoding — the numeric
//! mirror of the [`crate::Column::DictUtf8`] pipeline. Its two arms are
//! [`RleI64`] runs and [`ForLanes`], frame-of-reference residuals stored in
//! the narrowest byte-aligned lane type (`u8`, `u16` or `u32`) so kernels
//! read them as plain slices. [`BitPackedI64`] is the checkpoint codec
//! only: it packs lanes and dictionary codes at their exact bit width on
//! write and unpacks them sequentially on read. Sealed-table state feeds the
//! `storage.encoding.*` gauges reported by EXPLAIN ANALYZE.

/// A run-length encoded sequence of i64 values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RleI64 {
    /// (value, run length) pairs.
    pub runs: Vec<(i64, u32)>,
    /// Total decoded length.
    pub len: usize,
}

impl RleI64 {
    /// Encode a slice. Runs longer than `u32::MAX` are split.
    pub fn encode(values: &[i64]) -> RleI64 {
        RleI64::from_values(values.iter().copied())
    }

    /// Encode a value stream, as [`RleI64::encode`] does a slice.
    pub(crate) fn from_values(values: impl Iterator<Item = i64>) -> RleI64 {
        let mut rle = RleI64 {
            runs: Vec::new(),
            len: 0,
        };
        values.for_each(|v| {
            match rle.runs.last_mut() {
                Some((last, n)) if *last == v && *n < u32::MAX => *n += 1,
                _ => rle.runs.push((v, 1)),
            }
            rle.len += 1;
        });
        rle
    }

    /// Decode back to the original slice.
    pub fn decode(&self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.len);
        for &(v, n) in &self.runs {
            out.extend(std::iter::repeat_n(v, n as usize));
        }
        out
    }

    /// Encoded size in bytes.
    pub fn byte_size(&self) -> usize {
        self.runs.len() * 12
    }
}

/// Fixed-width bit-packing of non-negative i64 deltas from a frame-of-
/// reference minimum — the checkpoint codec for [`ForLanes`] and dictionary
/// codes. Only whole-vector packing and a sequential unpack exist: in
/// memory, residuals live in byte-aligned lanes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitPackedI64 {
    /// Frame of reference (minimum value).
    pub reference: i64,
    /// Bits per packed value (0 when all values equal the reference).
    pub width: u8,
    /// Packed words.
    pub words: Vec<u64>,
    /// Decoded length.
    pub len: usize,
}

impl BitPackedI64 {
    /// Encode a slice with frame-of-reference + bit packing.
    pub fn encode(values: &[i64]) -> BitPackedI64 {
        let reference = values.iter().copied().min().unwrap_or(0);
        BitPackedI64::pack(
            reference,
            values.iter().map(|&v| v.wrapping_sub(reference) as u64),
        )
    }

    /// Pack `residuals` above `reference` at the bit width the largest one
    /// needs.
    fn pack(reference: i64, residuals: impl Iterator<Item = u64> + Clone) -> BitPackedI64 {
        let (len, max_delta) = residuals
            .clone()
            .fold((0usize, 0u64), |(n, m), d| (n + 1, m.max(d)));
        let width = (64 - max_delta.leading_zeros()) as usize;
        let mut words = vec![0u64; (len * width).div_ceil(64)];
        if width > 0 {
            for (i, delta) in residuals.enumerate() {
                let bit = i * width;
                let (word, off) = (bit / 64, bit % 64);
                words[word] |= delta << off;
                if off + width > 64 {
                    words[word + 1] |= delta >> (64 - off);
                }
            }
        }
        BitPackedI64 {
            reference,
            width: width as u8,
            words,
            len,
        }
    }

    /// The residuals above the reference, unpacked in order.
    fn residuals(&self) -> impl Iterator<Item = u64> + '_ {
        let w = self.width as usize;
        let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
        (0..self.len).map(move |i| {
            if w == 0 {
                return 0;
            }
            let bit = i * w;
            let (word, off) = (bit / 64, bit % 64);
            let mut delta = self.words[word] >> off;
            if off + w > 64 {
                delta |= self.words[word + 1] << (64 - off);
            }
            delta & mask
        })
    }

    /// Decode back to the original slice.
    pub fn decode(&self) -> Vec<i64> {
        self.residuals()
            .map(|d| self.reference.wrapping_add(d as i64))
            .collect()
    }

    /// Whether the word count matches `len * width` bits — checked before
    /// unpacking untrusted bytes.
    pub(crate) fn is_well_formed(&self) -> bool {
        self.width <= 64
            && self
                .len
                .checked_mul(self.width as usize)
                .map(|b| b.div_ceil(64))
                == Some(self.words.len())
    }

    /// Encoded size in bytes.
    pub fn byte_size(&self) -> usize {
        16 + self.words.len() * 8
    }
}

/// An unsigned lane type holding frame-of-reference residuals.
pub trait Lane: Copy + Ord {
    /// The largest residual the lane holds.
    const MAX: u64;
    /// Narrow `x` (at most [`Lane::MAX`]) into a lane.
    fn narrow(x: u64) -> Self;
}

impl Lane for u8 {
    const MAX: u64 = u8::MAX as u64;
    fn narrow(x: u64) -> u8 {
        x as u8
    }
}

impl Lane for u16 {
    const MAX: u64 = u16::MAX as u64;
    fn narrow(x: u64) -> u16 {
        x as u16
    }
}

impl Lane for u32 {
    const MAX: u64 = u32::MAX as u64;
    fn narrow(x: u64) -> u32 {
        x as u32
    }
}

/// Frame-of-reference residuals in the narrowest byte-aligned lane type
/// that holds their range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lanes {
    /// Residual range below 2^8.
    U8(Vec<u8>),
    /// Residual range below 2^16.
    U16(Vec<u16>),
    /// Residual range below 2^32.
    U32(Vec<u32>),
}

/// Run `$body` with `$s` bound to the lane slice of a [`Lanes`], once per
/// lane width — kernels written against `$s` are monomorphized per width.
/// `$s[i] as i64` is the residual of row `i` in every arm.
#[macro_export]
macro_rules! with_lanes {
    ($lanes:expr, $s:ident => $body:expr) => {
        match $lanes {
            $crate::compress::Lanes::U8($s) => $body,
            $crate::compress::Lanes::U16($s) => $body,
            $crate::compress::Lanes::U32($s) => $body,
        }
    };
}

/// Bytes per lane of the narrowest lane type holding residuals up to
/// `max_delta`, or `None` past 32 bits.
fn lane_bytes(max_delta: u64) -> Option<usize> {
    if max_delta <= <u8 as Lane>::MAX {
        Some(1)
    } else if max_delta <= <u16 as Lane>::MAX {
        Some(2)
    } else if max_delta <= <u32 as Lane>::MAX {
        Some(4)
    } else {
        None
    }
}

/// Frame-of-reference integers stored byte-aligned: row `i` is
/// `reference + lanes[i]` (Lang et al., "Data Blocks", SIGMOD 2016, truncate
/// to the narrowest byte-addressable width). Kernels compare, hash and
/// aggregate straight from the lane slice; nothing is unpacked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForLanes {
    /// Frame of reference (the minimum value).
    pub reference: i64,
    /// Per-row residuals above `reference`.
    pub lanes: Lanes,
}

impl ForLanes {
    /// Encode `values`, or `None` when their range needs more than 32 bits.
    pub fn encode(values: &[i64]) -> Option<ForLanes> {
        let reference = values.iter().copied().min().unwrap_or(0);
        let max = values.iter().copied().max().unwrap_or(0);
        ForLanes::from_residuals(
            reference,
            max.wrapping_sub(reference) as u64,
            values.iter().map(|&v| v.wrapping_sub(reference) as u64),
        )
    }

    /// Lanes of the narrowest width holding `max_delta`, or `None` past 32
    /// bits.
    fn from_residuals(
        reference: i64,
        max_delta: u64,
        residuals: impl Iterator<Item = u64>,
    ) -> Option<ForLanes> {
        fn narrow<L: Lane>(residuals: impl Iterator<Item = u64>) -> Vec<L> {
            let mut out = Vec::with_capacity(residuals.size_hint().0);
            residuals.for_each(|d| out.push(L::narrow(d)));
            out
        }
        let lanes = match lane_bytes(max_delta)? {
            1 => Lanes::U8(narrow(residuals)),
            2 => Lanes::U16(narrow(residuals)),
            _ => Lanes::U32(narrow(residuals)),
        };
        Some(ForLanes { reference, lanes })
    }

    /// Rebuild lanes from their checkpoint packing, or `None` when the
    /// packed width exceeds 32 bits. Packing stores the exact bit width of
    /// the largest residual, and lane widths break on byte boundaries, so
    /// the round trip restores the lane width the lanes were sealed with.
    pub fn from_packed(packed: &BitPackedI64) -> Option<ForLanes> {
        let max_delta = if packed.width == 0 {
            0
        } else {
            u64::MAX >> (64 - packed.width as u32)
        };
        ForLanes::from_residuals(packed.reference, max_delta, packed.residuals())
    }

    /// Pack the lanes at their exact bit width for a checkpoint.
    pub fn packed(&self) -> BitPackedI64 {
        with_lanes!(&self.lanes, s => BitPackedI64::pack(self.reference, s.iter().map(|&d| d as u64)))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        with_lanes!(&self.lanes, s => s.len())
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes per lane: 1, 2 or 4.
    pub fn lane_bytes(&self) -> usize {
        match self.lanes {
            Lanes::U8(_) => 1,
            Lanes::U16(_) => 2,
            Lanes::U32(_) => 4,
        }
    }

    /// Value at position `i` (must be `< len`).
    #[inline]
    pub fn get(&self, i: usize) -> i64 {
        with_lanes!(&self.lanes, s => self.reference.wrapping_add(s[i] as i64))
    }

    /// Decode to a plain vector.
    pub fn decode(&self) -> Vec<i64> {
        with_lanes!(&self.lanes, s => s.iter().map(|&d| self.reference.wrapping_add(d as i64)).collect())
    }

    /// The rows `[offset, offset + len)`: a sub-range copy of the lanes under
    /// the same reference and width.
    pub fn slice(&self, offset: usize, len: usize) -> ForLanes {
        let range = offset..offset + len;
        ForLanes {
            reference: self.reference,
            lanes: match &self.lanes {
                Lanes::U8(s) => Lanes::U8(s[range].to_vec()),
                Lanes::U16(s) => Lanes::U16(s[range].to_vec()),
                Lanes::U32(s) => Lanes::U32(s[range].to_vec()),
            },
        }
    }

    /// Encoded size in bytes: the reference plus the lanes.
    pub fn byte_size(&self) -> usize {
        8 + self.len() * self.lane_bytes()
    }
}

/// What picking an integer encoding needs to know of a value stream, taken
/// in one pass: its length, range and run count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IntShape {
    /// Number of values.
    pub len: usize,
    /// Smallest value (0 for an empty stream).
    pub min: i64,
    /// Largest value (0 for an empty stream).
    pub max: i64,
    /// Runs [`RleI64::encode`] would emit (runs past `u32::MAX` split).
    pub runs: usize,
}

impl IntShape {
    /// The shape of `values`.
    pub(crate) fn of(values: impl Iterator<Item = i64>) -> IntShape {
        let mut shape = IntShape {
            len: 0,
            min: i64::MAX,
            max: i64::MIN,
            runs: 0,
        };
        let (mut prev, mut run) = (0i64, 0u32);
        values.for_each(|v| {
            shape.min = shape.min.min(v);
            shape.max = shape.max.max(v);
            if shape.len > 0 && v == prev && run < u32::MAX {
                run += 1;
            } else {
                shape.runs += 1;
                (prev, run) = (v, 1);
            }
            shape.len += 1;
        });
        if shape.len == 0 {
            (shape.min, shape.max) = (0, 0);
        }
        shape
    }

    /// Bytes of the RLE arm: 12 per run plus the 4-byte run-end index.
    pub(crate) fn rle_bytes(&self) -> usize {
        self.runs * 16
    }

    /// Whether frame-of-reference lanes exist for this range and take no
    /// more bytes than the RLE runs alone ([`ForLanes::byte_size`] against
    /// [`RleI64::byte_size`]).
    pub(crate) fn lanes_win(&self) -> bool {
        lane_bytes(self.max.wrapping_sub(self.min) as u64)
            .is_some_and(|bytes| 8 + self.len * bytes <= self.runs * 12)
    }
}

/// A sealed integer column body in one of the lightweight encodings — the
/// representation behind [`crate::Column::Int64Encoded`].
///
/// NULL slots carry a placeholder value; the owning column's validity
/// bitmap is authoritative. Which encoding wins is decided at seal time from
/// the values' range and run count alone ([`EncodedInts::encode`] applies the
/// same rule): frame-of-reference lanes when the residual range fits 32
/// bits, unless RLE runs are smaller still; only the winner is built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodedInts {
    /// Run-length runs plus a prefix-sum of run ends for binary-searched
    /// random access (the ends are rebuilt on decode, never serialized).
    Rle {
        /// The underlying (value, run length) pairs.
        rle: RleI64,
        /// `ends[k]` = first position after run `k`.
        ends: Vec<u32>,
    },
    /// Frame-of-reference residuals in byte-aligned lanes.
    For(ForLanes),
}

impl EncodedInts {
    /// Encode `values`, picking whichever of RLE and frame-of-reference
    /// lanes is smaller (lanes only exist for ranges of at most 32 bits).
    pub fn encode(values: &[i64]) -> EncodedInts {
        let values = values.iter().copied();
        EncodedInts::build(&IntShape::of(values.clone()), values)
    }

    /// Build only the arm [`EncodedInts::encode`] picks for a stream of
    /// this `shape`: frame-of-reference lanes when they exist and are no
    /// larger than the RLE runs, else RLE. `values` must be the stream
    /// `shape` was taken of.
    pub(crate) fn build(shape: &IntShape, values: impl Iterator<Item = i64>) -> EncodedInts {
        if shape.lanes_win() {
            let reference = shape.min;
            let lanes = ForLanes::from_residuals(
                reference,
                shape.max.wrapping_sub(reference) as u64,
                values.map(|v| v.wrapping_sub(reference) as u64),
            );
            EncodedInts::For(lanes.expect("lanes_win implies a lane width"))
        } else {
            EncodedInts::from_rle(RleI64::from_values(values))
        }
    }

    /// Wrap an [`RleI64`], building the run-end index.
    pub fn from_rle(rle: RleI64) -> EncodedInts {
        let mut ends = Vec::with_capacity(rle.runs.len());
        let mut pos = 0u32;
        for &(_, n) in &rle.runs {
            pos += n;
            ends.push(pos);
        }
        EncodedInts::Rle { rle, ends }
    }

    /// Decoded length.
    pub fn len(&self) -> usize {
        match self {
            EncodedInts::Rle { rle, .. } => rle.len,
            EncodedInts::For(f) => f.len(),
        }
    }

    /// Whether the encoded sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value at position `i` (must be `< len`). O(1) for lanes, O(log runs)
    /// for RLE.
    #[inline]
    pub fn get(&self, i: usize) -> i64 {
        match self {
            EncodedInts::Rle { rle, ends } => {
                let run = ends.partition_point(|&e| e <= i as u32);
                rle.runs[run].0
            }
            EncodedInts::For(f) => f.get(i),
        }
    }

    /// Decode to a plain vector.
    pub fn decode(&self) -> Vec<i64> {
        match self {
            EncodedInts::Rle { rle, .. } => rle.decode(),
            EncodedInts::For(f) => f.decode(),
        }
    }

    /// Encoded size in bytes (including the RLE run-end index).
    pub fn byte_size(&self) -> usize {
        match self {
            EncodedInts::Rle { rle, ends } => rle.byte_size() + ends.len() * 4,
            EncodedInts::For(f) => f.byte_size(),
        }
    }

    /// The window `[offset, offset + len)` in the same arm: RLE trims runs
    /// in O(log runs + runs in window); lanes copy the sub-range. This is
    /// what keeps a morsel slice of an encoded column encoded.
    pub fn slice(&self, offset: usize, len: usize) -> EncodedInts {
        debug_assert!(offset + len <= self.len());
        match self {
            EncodedInts::Rle { rle, ends } => {
                let end = offset + len;
                let first = ends.partition_point(|&e| e <= offset as u32);
                let mut runs: Vec<(i64, u32)> = Vec::new();
                let mut pos = if first == 0 {
                    0
                } else {
                    ends[first - 1] as usize
                };
                for &(v, n) in &rle.runs[first..] {
                    if pos >= end {
                        break;
                    }
                    let s = pos.max(offset);
                    let e = (pos + n as usize).min(end);
                    if e > s {
                        runs.push((v, (e - s) as u32));
                    }
                    pos += n as usize;
                }
                EncodedInts::from_rle(RleI64 { runs, len })
            }
            EncodedInts::For(f) => EncodedInts::For(f.slice(offset, len)),
        }
    }

    /// The RLE runs, when run-length encoded — kernels use these to
    /// evaluate per run instead of per row.
    pub fn runs(&self) -> Option<&[(i64, u32)]> {
        match self {
            EncodedInts::Rle { rle, .. } => Some(&rle.runs),
            EncodedInts::For(_) => None,
        }
    }

    /// The frame-of-reference lanes, when lane-encoded.
    pub fn lanes(&self) -> Option<&ForLanes> {
        match self {
            EncodedInts::Rle { .. } => None,
            EncodedInts::For(f) => Some(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rle_roundtrip() {
        let data = vec![1, 1, 1, 2, 2, 3, 3, 3, 3, 1];
        let enc = RleI64::encode(&data);
        assert_eq!(enc.runs.len(), 4);
        assert_eq!(enc.decode(), data);
    }

    #[test]
    fn rle_empty() {
        let enc = RleI64::encode(&[]);
        assert_eq!(enc.decode(), Vec::<i64>::new());
        assert_eq!(enc.byte_size(), 0);
    }

    #[test]
    fn rle_random_access() {
        let data = vec![5, 5, 7, 7, 7, 9];
        let enc = EncodedInts::from_rle(RleI64::encode(&data));
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(enc.get(i), v);
        }
    }

    #[test]
    fn bitpack_roundtrip_small_range() {
        let data = vec![100, 101, 103, 100, 107];
        let enc = BitPackedI64::encode(&data);
        assert_eq!(enc.width, 3); // max delta 7 -> 3 bits
        assert_eq!(enc.decode(), data);
    }

    #[test]
    fn bitpack_constant_column() {
        let data = vec![42; 1000];
        let enc = BitPackedI64::encode(&data);
        assert_eq!(enc.width, 0);
        assert!(enc.words.is_empty());
        assert_eq!(enc.decode(), data);
        assert!(enc.byte_size() < data.len());
    }

    #[test]
    fn bitpack_negative_values() {
        let data = vec![-5, -3, -4, -5];
        let enc = BitPackedI64::encode(&data);
        assert_eq!(enc.reference, -5);
        assert_eq!(enc.decode(), data);
    }

    #[test]
    fn bitpack_word_boundary_crossing() {
        // width 7 values cross 64-bit word boundaries regularly
        let data: Vec<i64> = (0..100).map(|i| i % 100).collect();
        let enc = BitPackedI64::encode(&data);
        assert_eq!(enc.decode(), data);
    }

    #[test]
    fn bitpack_extreme_range() {
        let data = vec![i64::MIN, i64::MAX, 0];
        let enc = BitPackedI64::encode(&data);
        assert_eq!(enc.decode(), data);
    }

    #[test]
    fn for_lanes_random_access() {
        let data: Vec<i64> = (0..50).map(|i| i * 3 + 10).collect();
        let enc = ForLanes::encode(&data).expect("range fits a lane");
        assert_eq!(enc.reference, 10);
        assert_eq!(enc.lane_bytes(), 1);
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(enc.get(i), v);
        }
        assert_eq!(enc.decode(), data);
    }

    #[test]
    fn for_lanes_pick_the_narrowest_width() {
        for (span, bytes) in [
            (0i64, Some(1)),
            (255, Some(1)),
            (256, Some(2)),
            (65_535, Some(2)),
            (65_536, Some(4)),
            (u32::MAX as i64, Some(4)),
            (u32::MAX as i64 + 1, None),
        ] {
            for base in [-7i64, 1_000_000_000, i64::MIN, i64::MAX - span] {
                let data = vec![base, base.wrapping_add(span), base];
                let enc = ForLanes::encode(&data);
                assert_eq!(enc.as_ref().map(ForLanes::lane_bytes), bytes, "span {span}");
                if let Some(enc) = enc {
                    assert_eq!(enc.decode(), data, "span {span} base {base}");
                }
            }
        }
        assert!(ForLanes::encode(&[i64::MIN, i64::MAX]).is_none());
    }

    #[test]
    fn for_lanes_pack_round_trip_keeps_width() {
        for span in [0i64, 1, 200, 300, 70_000, 4_000_000_000] {
            let data: Vec<i64> = (0..300).map(|i| -5 + (i * 7919) % (span + 1)).collect();
            let enc = ForLanes::encode(&data).expect("range fits a lane");
            let packed = enc.packed();
            assert!(packed.is_well_formed());
            assert_eq!(packed.decode(), data);
            assert_eq!(ForLanes::from_packed(&packed), Some(enc), "span {span}");
        }
    }

    #[test]
    fn encoded_ints_picks_smaller_encoding() {
        // Long runs: RLE wins.
        let runs: Vec<i64> = (0..1000).map(|i| i / 100).collect();
        let enc = EncodedInts::encode(&runs);
        assert!(matches!(enc, EncodedInts::Rle { .. }));
        assert_eq!(enc.decode(), runs);
        // High-churn small range: frame-of-reference lanes win.
        let churn: Vec<i64> = (0..1000).map(|i| i % 97).collect();
        let enc = EncodedInts::encode(&churn);
        assert!(matches!(enc, EncodedInts::For(_)));
        assert_eq!(enc.decode(), churn);
        // A range past 32 bits has no lane width: RLE is the only arm.
        let wide: Vec<i64> = (0..1000).map(|i| (i % 3) << 40).collect();
        assert!(matches!(
            EncodedInts::encode(&wide),
            EncodedInts::Rle { .. }
        ));
    }

    #[test]
    fn encoded_ints_random_access() {
        for data in [
            (0..500).map(|i| i / 50).collect::<Vec<i64>>(),
            (0..500).map(|i| i % 13 - 6).collect::<Vec<i64>>(),
            vec![],
            vec![i64::MIN, i64::MIN + 9, i64::MIN + 3],
            vec![i64::MAX - 70_000, i64::MAX, i64::MAX - 1],
        ] {
            let lanes = ForLanes::encode(&data).expect("range fits a lane");
            for enc in [
                EncodedInts::from_rle(RleI64::encode(&data)),
                EncodedInts::For(lanes),
            ] {
                assert_eq!(enc.len(), data.len());
                for (i, &v) in data.iter().enumerate() {
                    assert_eq!(enc.get(i), v, "index {i}");
                }
            }
        }
    }

    #[test]
    fn encoded_slice_stays_in_arm_and_matches() {
        let runny: Vec<i64> = (0..500).map(|i| (i / 64) % 5).collect();
        let churn: Vec<i64> = (0..500).map(|i| (i * 31) % 64).collect();
        for data in [runny, churn] {
            let lanes = ForLanes::encode(&data).expect("range fits a lane");
            for enc in [
                EncodedInts::from_rle(RleI64::encode(&data)),
                EncodedInts::For(lanes),
            ] {
                for (off, len) in [(0, 500), (0, 0), (13, 101), (64, 64), (499, 1), (450, 50)] {
                    let s = enc.slice(off, len);
                    assert_eq!(s.len(), len, "slice ({off}, {len})");
                    assert_eq!(s.decode(), data[off..off + len].to_vec());
                    assert_eq!(
                        s.runs().is_some(),
                        enc.runs().is_some(),
                        "slice ({off}, {len}) changed encoding arm"
                    );
                }
            }
        }
    }
}
