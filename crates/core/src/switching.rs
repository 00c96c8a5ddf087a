//! Threshold-based dynamic switching (Eq. 2–3).
//!
//! Given the approximate pre-activations `y'`, the switching map `m`
//! marks which neurons are **sensitive** (`m_i = 1`: must be recomputed by
//! the Executor) and which are **insensitive** (`m_i = 0`: keep the cheap
//! approximate value):
//!
//! * ReLU / GELU: `y'_i < θ  ⇒  m_i = 0` (deep negative pre-activations
//!   die in the one-sided tail anyway),
//! * sigmoid / tanh: `|y'_i| > θ  ⇒  m_i = 0` (saturation regions),
//! * magnitude (identity): `|y'_i| < θ  ⇒  m_i = 0` — the
//!   Precision-Gating-style rule for projections feeding scale-bounded
//!   mixers such as attention logits.
//!
//! The map is stored bit-packed in `u64` words — the same one-bit-per-
//! neuron artifact the hardware keeps in the GLB. Bit `i` lives in word
//! `i / 64` at position `i % 64`; serialized little-endian this is
//! exactly the byte layout of [`SwitchingMap::packed_bytes`] (bit `i` in
//! byte `i / 8` at position `i % 8`). A map of up to 64 neurons holds its
//! one word inline, so building it allocates nothing; a longer map keeps
//! all its words on the heap. Which storage holds the words follows from
//! the length alone, and equality compares the words, not the storage.

use duet_nn::Activation;
use duet_tensor::Tensor;

/// A switching decision rule: activation type + threshold θ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchingPolicy {
    /// The activation whose insensitive region the rule exploits.
    pub activation: Activation,
    /// Threshold θ (tuned offline; see [`crate::tuning`]).
    pub theta: f32,
}

impl SwitchingPolicy {
    /// ReLU policy: outputs with `y' < theta` are insensitive.
    pub fn relu(theta: f32) -> Self {
        Self {
            activation: Activation::Relu,
            theta,
        }
    }

    /// Sigmoid policy: outputs with `|y'| > theta` are insensitive.
    pub fn sigmoid(theta: f32) -> Self {
        Self {
            activation: Activation::Sigmoid,
            theta,
        }
    }

    /// Tanh policy: outputs with `|y'| > theta` are insensitive.
    pub fn tanh(theta: f32) -> Self {
        Self {
            activation: Activation::Tanh,
            theta,
        }
    }

    /// GELU policy: outputs with `y' < theta` are insensitive — the same
    /// one-sided band as ReLU (deep-negative pre-activations die in the
    /// GELU tail).
    pub fn gelu(theta: f32) -> Self {
        Self {
            activation: Activation::Gelu,
            theta,
        }
    }

    /// Magnitude policy for linear projections feeding scale-bounded
    /// mixers (attention Q/K/V/output GEMVs): outputs with
    /// `|y'| < theta` are insensitive — small entries barely move the
    /// scaled-dot-product softmax, so the cheap approximate value is
    /// kept. `theta <= 0` keeps everything sensitive (dense).
    pub fn magnitude(theta: f32) -> Self {
        Self {
            activation: Activation::Identity,
            theta,
        }
    }

    /// A policy that never switches (every output sensitive) — the
    /// single-module baseline.
    pub fn never_switch() -> Self {
        Self {
            activation: Activation::Identity,
            theta: 0.0,
        }
    }

    /// Whether a single approximate pre-activation is sensitive (must be
    /// recomputed exactly).
    pub fn is_sensitive(&self, y_approx: f32) -> bool {
        !self.activation.is_insensitive(y_approx, self.theta)
    }

    /// Generates the switching map for a vector of approximate
    /// pre-activations.
    pub fn map(&self, y_approx: &Tensor) -> SwitchingMap {
        self.map_slice(y_approx.data())
    }

    /// [`SwitchingPolicy::map`] over a slice — the row of comparators:
    /// each 64-output word is built in one branch-free pass, with the
    /// activation's rule chosen once per call. Each rule is the exact
    /// negation of [`Activation::is_insensitive`], so a NaN (in `y'` or
    /// in θ) stays sensitive.
    // `!(a < b)` is not `a >= b` for NaN, and the NaN case is the point
    // (pinned by `nan_stays_sensitive_under_every_rule`).
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn map_slice(&self, y_approx: &[f32]) -> SwitchingMap {
        let theta = self.theta;
        match self.activation {
            Activation::Relu | Activation::Gelu => SwitchingMap::pack(y_approx, |y| !(y < theta)),
            Activation::Sigmoid | Activation::Tanh => {
                SwitchingMap::pack(y_approx, |y| !(y.abs() > theta))
            }
            Activation::Identity => SwitchingMap::pack(y_approx, |y| !(y.abs() < theta)),
        }
    }
}

/// A binary switching map: bit `i` set means neuron *i* needs the
/// Executor (the paper's `m_i = 1`).
///
/// Storage is bit-packed `u64` words: up to `INLINE_WORDS` of them in
/// `inline`, more all in `heap`. Invariants: `heap` is empty while the
/// words fit inline, and bits at positions `>= len` in the last word are
/// always zero, so equality and word-level popcounts are exact.
#[derive(Clone, Default)]
pub struct SwitchingMap {
    inline: [u64; INLINE_WORDS],
    heap: Vec<u64>,
    len: usize,
}

/// Words a map holds without a heap allocation: every map of up to 64
/// neurons (each `lm` projection's, each `rnn` gate's).
const INLINE_WORDS: usize = 1;

impl PartialEq for SwitchingMap {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words() == other.words()
    }
}

impl Eq for SwitchingMap {}

impl std::fmt::Debug for SwitchingMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwitchingMap")
            .field("words", &self.words())
            .field("len", &self.len)
            .finish()
    }
}

/// Packs 64 flags of 0 or 1 into a word, flag `b` to bit `b`. Eight
/// flag bytes at a time are gathered into one byte by a multiply: flag
/// `i` of the group sits at bit `8i`, and the constant's bit `56 − 7i`
/// moves it to bit `56 + i`; no two partial products share a bit, so
/// nothing carries. This keeps the flag loops free of variable shifts,
/// so they vectorize.
#[inline]
fn word_of(flags: &[u8; 64]) -> u64 {
    const GATHER: u64 = 0x0102_0408_1020_4080;
    flags
        .chunks_exact(8)
        .enumerate()
        .fold(0, |word, (g, group)| {
            let group = u64::from_le_bytes(group.try_into().expect("chunks of eight"));
            word | (group.wrapping_mul(GATHER) >> 56) << (8 * g)
        })
}

/// The inverse of [`word_of`]: one 0/1 flag per bit of `word`. Each byte
/// of the word is copied into all eight bytes of a `u64`, byte `i` keeps
/// only bit `i`, and adding `0x7f` carries any kept bit into the byte's
/// top bit, which is shifted down to bit 0. No byte overflows into the
/// next, and there is no branch or variable shift.
#[inline]
fn flags_of(word: u64) -> [u8; 64] {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let mut flags = [0u8; 64];
    for (g, group) in flags.chunks_exact_mut(8).enumerate() {
        let byte = word >> (8 * g) & 0xff;
        let bit_i_of_byte_i = byte.wrapping_mul(ONES) & 0x8040_2010_0804_0201;
        let spread = (bit_i_of_byte_i + 0x7f7f_7f7f_7f7f_7f7f) >> 7 & ONES;
        group.copy_from_slice(&spread.to_le_bytes());
    }
    flags
}

/// Mask selecting the live bits of the last word of an `n`-bit map.
#[inline]
fn tail_mask(n: usize) -> u64 {
    match n % 64 {
        0 => u64::MAX,
        r => (1u64 << r) - 1,
    }
}

impl SwitchingMap {
    /// An empty map (zero neurons) — the seed for bit-wise builders.
    pub fn empty() -> Self {
        Self::default()
    }

    /// An all-insensitive map of `len` neurons, its words in the storage
    /// that length calls for.
    fn zeroed(len: usize) -> Self {
        let words = len.div_ceil(64);
        Self {
            inline: [0; INLINE_WORDS],
            heap: if words > INLINE_WORDS {
                vec![0; words]
            } else {
                Vec::new()
            },
            len,
        }
    }

    /// Grows the map to `len` neurons; the new bits are zero. Moves the
    /// words to the heap once they no longer fit inline.
    fn grow(&mut self, len: usize) {
        let (old, new) = (self.len.div_ceil(64), len.div_ceil(64));
        if new > INLINE_WORDS {
            if old <= INLINE_WORDS {
                self.heap = Vec::with_capacity(new);
                self.heap.extend_from_slice(&self.inline[..old]);
            }
            self.heap.resize(new, 0);
        }
        self.len = len;
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match self.len.div_ceil(64) {
            n if n <= INLINE_WORDS => &mut self.inline[..n],
            _ => &mut self.heap,
        }
    }

    /// Packs `sensitive(v)` over `values`, one 64-value word per pass,
    /// written straight into the map's storage; a short last chunk leaves
    /// the tail bits zero.
    fn pack(values: &[f32], sensitive: impl Fn(f32) -> bool) -> Self {
        let mut map = Self::zeroed(values.len());
        for (word, chunk) in map.words_mut().iter_mut().zip(values.chunks(64)) {
            let mut flags = [0u8; 64];
            for (f, &v) in flags.iter_mut().zip(chunk) {
                *f = u8::from(sensitive(v));
            }
            *word = word_of(&flags);
        }
        map
    }

    /// Builds a map from explicit flags.
    pub fn from_flags(sensitive: Vec<bool>) -> Self {
        sensitive.into_iter().collect()
    }

    /// An all-sensitive map of length `n` (dense execution).
    pub fn all_sensitive(n: usize) -> Self {
        let mut map = Self::zeroed(n);
        let words = map.words_mut();
        words.fill(u64::MAX);
        if let Some(last) = words.last_mut() {
            *last &= tail_mask(n);
        }
        map
    }

    /// An all-insensitive map of length `n` (nothing to execute).
    pub fn all_insensitive(n: usize) -> Self {
        Self::zeroed(n)
    }

    /// Number of neurons covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words backing the map (bit `i` of the map is bit
    /// `i % 64` of word `i / 64`; tail bits past `len` are zero).
    pub fn words(&self) -> &[u64] {
        match self.len.div_ceil(64) {
            n if n <= INLINE_WORDS => &self.inline[..n],
            _ => &self.heap,
        }
    }

    /// Whether neuron `i` is sensitive.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn is_sensitive(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "index {i} out of range for map of {}",
            self.len
        );
        self.words()[i / 64] >> (i % 64) & 1 == 1
    }

    /// Appends one neuron's flag.
    pub fn push(&mut self, sensitive: bool) {
        let i = self.len;
        self.grow(i + 1);
        if sensitive {
            self.words_mut()[i / 64] |= 1u64 << (i % 64);
        }
    }

    /// Appends another map's flags (bit-level concatenation; `other` need
    /// not be word-aligned).
    pub fn extend_from_map(&mut self, other: &SwitchingMap) {
        if self.len.is_multiple_of(64) {
            // word-aligned fast path: tail bits of `other` are already zero
            let start = self.len / 64;
            self.grow(self.len + other.len);
            self.words_mut()[start..].copy_from_slice(other.words());
        } else {
            self.extend(other.iter());
        }
    }

    /// Iterator over the per-neuron flags.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        let words = self.words();
        (0..self.len).map(move |i| words[i / 64] >> (i % 64) & 1 == 1)
    }

    /// Count of sensitive neurons (Executor workload) — a popcount over
    /// the packed words.
    pub fn sensitive_count(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Count of sensitive neurons in `start..end` — e.g. one channel's
    /// workload within a channel-major CONV map.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn sensitive_count_in(&self, start: usize, end: usize) -> usize {
        assert!(start <= end && end <= self.len, "range out of bounds");
        if start == end {
            return 0;
        }
        let words = self.words();
        let (wa, wb) = (start / 64, (end - 1) / 64);
        let lo = u64::MAX << (start % 64);
        let hi = tail_mask(end);
        if wa == wb {
            return (words[wa] & lo & hi).count_ones() as usize;
        }
        let mut n = (words[wa] & lo).count_ones() as usize;
        for w in &words[wa + 1..wb] {
            n += w.count_ones() as usize;
        }
        n + (words[wb] & hi).count_ones() as usize
    }

    /// Per-word popcounts over the packed backing words (tail bits past
    /// `len` are invariantly zero, so the last count covers live bits
    /// only). This is the word-granular form of the Executor's workload
    /// accounting: summing it is [`SwitchingMap::sensitive_count`].
    pub fn popcount_words(&self) -> impl Iterator<Item = u32> + '_ {
        self.words().iter().map(|w| w.count_ones())
    }

    /// Iterator over `(word_index, word)` pairs, **skipping all-zero
    /// words** — the run-length skip of all-insensitive spans that makes
    /// sparse execution cost O(popcount) instead of O(bits). Bit `b` of a
    /// yielded word is neuron `word_index * 64 + b`.
    pub fn iter_words(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.words()
            .iter()
            .enumerate()
            .filter_map(|(i, &w)| (w != 0).then_some((i, w)))
    }

    /// Calls `f` for every sensitive index in `start..end`, ascending —
    /// word-at-a-time (masked first/last word, zero words skipped,
    /// `trailing_zeros` extraction inside a word). This is the ranged
    /// companion of [`SwitchingMap::iter_words`] for consumers whose rows
    /// are not word-aligned (e.g. one channel of a channel-major CONV
    /// map).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn for_each_sensitive_in(&self, start: usize, end: usize, mut f: impl FnMut(usize)) {
        assert!(start <= end && end <= self.len, "range out of bounds");
        if start == end {
            return;
        }
        let (wa, wb) = (start / 64, (end - 1) / 64);
        let lo = u64::MAX << (start % 64);
        let hi = tail_mask(end);
        for (wi, &word) in (wa..=wb).zip(&self.words()[wa..=wb]) {
            let mut w = word;
            if wi == wa {
                w &= lo;
            }
            if wi == wb {
                w &= hi;
            }
            while w != 0 {
                f(wi * 64 + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
    }

    /// Fraction of insensitive neurons — the computation-saving
    /// opportunity.
    pub fn insensitive_fraction(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        1.0 - self.sensitive_count() as f64 / self.len as f64
    }

    /// Iterator over sensitive indices, in ascending order.
    pub fn sensitive_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.words().iter().enumerate().flat_map(|(wi, &w)| {
            std::iter::successors((w != 0).then_some(w), |&rest| {
                let next = rest & (rest - 1); // clear lowest set bit
                (next != 0).then_some(next)
            })
            .map(move |bits| wi * 64 + bits.trailing_zeros() as usize)
        })
    }

    /// Marks a neuron insensitive — the §III-C correction step for one
    /// neuron: "if a predicted effectual neuron turns out to be
    /// ineffectual after ReLU, we will update the switching index of that
    /// neuron from 1 to 0". [`SwitchingMap::relu_correct`] applies it to
    /// a whole layer a word at a time.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn correct_to_insensitive(&mut self, i: usize) {
        assert!(
            i < self.len,
            "index {i} out of range for map of {}",
            self.len
        );
        self.words_mut()[i / 64] &= !(1u64 << (i % 64));
    }

    /// ReLU over the outputs `pre` this map covers, fused with the
    /// §III-C correction step a word at a time: each map word is ANDed
    /// with the word of `v.max(0.0) != 0.0` bits (a predicted-effectual
    /// neuron that dies in ReLU flips from 1 to 0), and every output left
    /// insensitive is set to zero — "the ineffectual neurons are set to
    /// zero, making the OMap become the input sparsity maps for the next
    /// layer". Sensitive outputs keep `v.max(0.0)`.
    ///
    /// The word is spread into one flag per output (`flags_of`), and
    /// each value's bits are ANDed with a mask built from its corrected
    /// flag, so the loop has no branch on the data and vectorizes.
    ///
    /// # Panics
    ///
    /// Panics if `pre.len()` differs from the map length.
    pub fn relu_correct(&mut self, pre: &mut [f32]) {
        assert_eq!(pre.len(), self.len, "output length mismatch");
        for (word, chunk) in self.words_mut().iter_mut().zip(pre.chunks_mut(64)) {
            let mut keep = flags_of(*word);
            for (k, v) in keep.iter_mut().zip(chunk.iter_mut()) {
                *v = v.max(0.0);
                *k &= u8::from(*v != 0.0);
                // all ones while the output stays sensitive, else +0.0
                *v = f32::from_bits(v.to_bits() & 0u32.wrapping_sub(u32::from(*k)));
            }
            *word = word_of(&keep);
        }
    }

    /// Mixes accurate and approximate pre-activations per Eq. (2):
    /// `y = y ⊙ m + y' ⊙ (1 − m)`.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree.
    pub fn mix(&self, accurate: &Tensor, approximate: &Tensor) -> Tensor {
        assert_eq!(accurate.len(), self.len(), "accurate length mismatch");
        assert_eq!(approximate.len(), self.len(), "approximate length mismatch");
        let mut out = approximate.clone();
        let od = out.data_mut();
        let ad = accurate.data();
        for (wi, &w) in self.words().iter().enumerate() {
            let base = wi * 64;
            let span = 64.min(self.len - base);
            let full = if span == 64 {
                u64::MAX
            } else {
                (1u64 << span) - 1
            };
            if w == full {
                // fully sensitive word: copy the accurate chunk wholesale
                od[base..base + span].copy_from_slice(&ad[base..base + span]);
            } else if w != 0 {
                let mut bits = w;
                while bits != 0 {
                    let i = base + bits.trailing_zeros() as usize;
                    od[i] = ad[i];
                    bits &= bits - 1;
                }
            }
        }
        out
    }

    /// Packs the map into bits (one bit per neuron, little-endian within a
    /// byte) — the format stored in the GLB, in which `duet-sim`'s fault
    /// injector flips map bits.
    pub fn packed_bytes(&self) -> Vec<u8> {
        self.words()
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .take(self.len.div_ceil(8))
            .collect()
    }

    /// Unpacks a map of known length from packed bits. Slack bits past
    /// `len` in the buffer are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is too short for `len`.
    pub fn from_packed(bytes: &[u8], len: usize) -> Self {
        assert!(bytes.len() * 8 >= len, "packed buffer too short");
        let mut map = Self::zeroed(len);
        let words = map.words_mut();
        for (i, &b) in bytes.iter().take(len.div_ceil(8)).enumerate() {
            words[i / 8] |= (b as u64) << (8 * (i % 8));
        }
        if let Some(last) = words.last_mut() {
            *last &= tail_mask(len);
        }
        map
    }
}

impl FromIterator<bool> for SwitchingMap {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut m = SwitchingMap::empty();
        m.extend(iter);
        m
    }
}

impl Extend<bool> for SwitchingMap {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for s in iter {
            self.push(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags_of(m: &SwitchingMap) -> Vec<bool> {
        m.iter().collect()
    }

    #[test]
    fn relu_rule_matches_eq3() {
        let p = SwitchingPolicy::relu(0.0);
        let y = Tensor::from_vec(vec![-1.0, -0.01, 0.0, 0.5], &[4]);
        let m = p.map(&y);
        assert_eq!(flags_of(&m), &[false, false, true, true]);
    }

    #[test]
    fn sigmoid_rule_matches_eq3() {
        let p = SwitchingPolicy::sigmoid(3.0);
        let y = Tensor::from_vec(vec![-5.0, -1.0, 0.0, 2.9, 3.1], &[5]);
        let m = p.map(&y);
        assert_eq!(flags_of(&m), &[false, true, true, true, false]);
    }

    #[test]
    fn never_switch_keeps_everything_sensitive() {
        let p = SwitchingPolicy::never_switch();
        let y = Tensor::from_vec(vec![-100.0, 0.0, 100.0], &[3]);
        assert_eq!(p.map(&y).sensitive_count(), 3);
    }

    #[test]
    fn gelu_rule_is_one_sided_like_relu() {
        let p = SwitchingPolicy::gelu(0.0);
        let y = Tensor::from_vec(vec![-1.0, -0.01, 0.0, 0.5], &[4]);
        assert_eq!(flags_of(&p.map(&y)), &[false, false, true, true]);
        // θ = −∞ keeps everything sensitive (dense)
        let dense = SwitchingPolicy::gelu(f32::NEG_INFINITY);
        assert_eq!(dense.map(&y).sensitive_count(), 4);
    }

    #[test]
    fn magnitude_rule_gates_small_entries() {
        let p = SwitchingPolicy::magnitude(0.5);
        let y = Tensor::from_vec(vec![-1.0, -0.2, 0.0, 0.4, 0.6], &[5]);
        assert_eq!(flags_of(&p.map(&y)), &[true, false, false, false, true]);
        // θ = 0 and θ = −∞ are both all-sensitive — never_switch() is
        // literally magnitude(0.0)
        assert_eq!(
            SwitchingPolicy::magnitude(0.0),
            SwitchingPolicy::never_switch()
        );
        let dense = SwitchingPolicy::magnitude(f32::NEG_INFINITY);
        assert_eq!(dense.map(&y).sensitive_count(), 5);
    }

    /// The NaN rule: each rule is a negated comparison and every
    /// comparison with NaN is false, so a NaN y′ is sensitive under all
    /// five rules and a NaN θ keeps every lane sensitive. The word
    /// builder `map_slice` agrees lane for lane with the scalar
    /// `is_sensitive` on the edge values.
    #[test]
    fn nan_stays_sensitive_under_every_rule() {
        let theta = 0.5f32;
        let edges = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            theta,
            -theta,
        ];
        let rules: [fn(f32) -> SwitchingPolicy; 5] = [
            SwitchingPolicy::relu,
            SwitchingPolicy::sigmoid,
            SwitchingPolicy::tanh,
            SwitchingPolicy::gelu,
            SwitchingPolicy::magnitude,
        ];
        for rule in rules {
            let name = rule(theta).activation;
            for th in [theta, f32::NEG_INFINITY, f32::INFINITY, f32::NAN] {
                let p = rule(th);
                assert!(p.is_sensitive(f32::NAN), "{name} θ={th}: NaN y′");
                // NaN lanes across a word boundary and into a tail word
                let nans = p.map_slice(&[f32::NAN; 70]);
                assert_eq!(nans.sensitive_count(), 70, "{name} θ={th}: NaN map");
                let m = p.map_slice(&edges);
                for (i, &y) in edges.iter().enumerate() {
                    assert_eq!(
                        m.is_sensitive(i),
                        p.is_sensitive(y),
                        "{name} θ={th}: map_slice and is_sensitive disagree at y′={y}"
                    );
                }
            }
            let nan_theta = rule(f32::NAN);
            assert_eq!(
                nan_theta.map_slice(&edges).sensitive_count(),
                edges.len(),
                "{name}: a NaN θ must keep every lane sensitive"
            );
            assert!(edges.iter().all(|&y| nan_theta.is_sensitive(y)), "{name}");
        }
    }

    #[test]
    fn mix_selects_by_flag() {
        let m = SwitchingMap::from_flags(vec![true, false, true]);
        let acc = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let app = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]);
        assert_eq!(m.mix(&acc, &app).data(), &[1.0, 20.0, 3.0]);
    }

    #[test]
    fn mix_handles_multi_word_maps() {
        // spans three words with a fully-sensitive middle word
        let n = 150;
        let flags: Vec<bool> = (0..n)
            .map(|i| (64..128).contains(&i) || i % 7 == 0)
            .collect();
        let m = SwitchingMap::from_flags(flags.clone());
        let acc = Tensor::from_fn(&[n], |i| i as f32);
        let app = Tensor::from_fn(&[n], |i| -(i as f32) - 1.0);
        let mixed = m.mix(&acc, &app);
        for (i, &f) in flags.iter().enumerate() {
            let want = if f { acc.data()[i] } else { app.data()[i] };
            assert_eq!(mixed.data()[i], want, "index {i}");
        }
    }

    #[test]
    fn counting_and_fraction() {
        let m = SwitchingMap::from_flags(vec![true, false, false, false]);
        assert_eq!(m.sensitive_count(), 1);
        assert!((m.insensitive_fraction() - 0.75).abs() < 1e-9);
        assert_eq!(m.sensitive_indices().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn sensitive_indices_cross_word_boundaries() {
        let flags: Vec<bool> = (0..200).map(|i| i % 63 == 0).collect();
        let m = SwitchingMap::from_flags(flags.clone());
        let want: Vec<usize> = (0..200).filter(|i| i % 63 == 0).collect();
        assert_eq!(m.sensitive_indices().collect::<Vec<_>>(), want);
    }

    #[test]
    fn count_in_range_matches_filter() {
        let flags: Vec<bool> = (0..300).map(|i| i % 5 == 0 || i % 17 == 0).collect();
        let m = SwitchingMap::from_flags(flags.clone());
        for (start, end) in [
            (0, 0),
            (0, 300),
            (3, 64),
            (64, 128),
            (60, 70),
            (1, 299),
            (130, 131),
        ] {
            let want = flags[start..end].iter().filter(|&&s| s).count();
            assert_eq!(m.sensitive_count_in(start, end), want, "{start}..{end}");
        }
    }

    #[test]
    fn correction_step() {
        let mut m = SwitchingMap::from_flags(vec![true, true]);
        m.correct_to_insensitive(0);
        assert_eq!(flags_of(&m), &[false, true]);
    }

    #[test]
    fn extend_from_map_concatenates_unaligned() {
        let a: Vec<bool> = (0..70).map(|i| i % 2 == 0).collect();
        let b: Vec<bool> = (0..130).map(|i| i % 3 == 0).collect();
        let mut m = SwitchingMap::from_flags(a.clone());
        m.extend_from_map(&SwitchingMap::from_flags(b.clone()));
        let mut want = a;
        want.extend(b);
        assert_eq!(flags_of(&m), want);
        // and the aligned fast path
        let mut m2 = SwitchingMap::from_flags(want[..64].to_vec());
        m2.extend_from_map(&SwitchingMap::from_flags(want[64..].to_vec()));
        assert_eq!(flags_of(&m2), want);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let flags: Vec<bool> = (0..19).map(|i| i % 3 == 0).collect();
        let m = SwitchingMap::from_flags(flags.clone());
        let packed = m.packed_bytes();
        assert_eq!(packed.len(), 3);
        let back = SwitchingMap::from_packed(&packed, 19);
        assert_eq!(back, m);
        assert_eq!(flags_of(&back), flags);
    }

    #[test]
    fn pack_roundtrip_non_byte_aligned_lengths() {
        for n in [1usize, 7, 9, 19, 63, 65, 127, 129, 200] {
            let flags: Vec<bool> = (0..n).map(|i| i % 3 == 0 || i % 11 == 0).collect();
            let m = SwitchingMap::from_flags(flags.clone());
            let packed = m.packed_bytes();
            assert_eq!(packed.len(), n.div_ceil(8), "len {n}");
            let back = SwitchingMap::from_packed(&packed, n);
            assert_eq!(back, m, "len {n}");
            assert_eq!(flags_of(&back), flags, "len {n}");
        }
    }

    #[test]
    fn pack_roundtrip_empty_map() {
        let m = SwitchingMap::empty();
        assert_eq!(m.len(), 0);
        assert!(m.is_empty());
        let packed = m.packed_bytes();
        assert!(packed.is_empty());
        let back = SwitchingMap::from_packed(&packed, 0);
        assert_eq!(back, m);
        assert_eq!(back.sensitive_count(), 0);
    }

    #[test]
    fn pack_roundtrip_all_sensitive_and_all_insensitive() {
        for n in [1usize, 8, 64, 65, 100] {
            let all = SwitchingMap::all_sensitive(n);
            assert_eq!(all.sensitive_count(), n);
            let back = SwitchingMap::from_packed(&all.packed_bytes(), n);
            assert_eq!(back, all, "all-sensitive len {n}");

            let none = SwitchingMap::all_insensitive(n);
            assert_eq!(none.sensitive_count(), 0);
            assert!(none.packed_bytes().iter().all(|&b| b == 0));
            let back = SwitchingMap::from_packed(&none.packed_bytes(), n);
            assert_eq!(back, none, "all-insensitive len {n}");
        }
    }

    #[test]
    fn packed_byte_layout_is_lsb_first() {
        // bit i sits in byte i/8 at position i%8 — the GLB layout the
        // fault injector flips map bits in.
        let mut flags = vec![false; 16];
        flags[0] = true;
        flags[3] = true;
        flags[9] = true;
        let m = SwitchingMap::from_flags(flags);
        assert_eq!(m.packed_bytes(), vec![0b0000_1001, 0b0000_0010]);
    }

    #[test]
    fn from_packed_ignores_slack_bits() {
        // A 3-bit map from a byte with garbage in the high bits must not
        // resurrect them through equality or popcount.
        let m = SwitchingMap::from_packed(&[0b1111_1101], 3);
        assert_eq!(m.sensitive_count(), 2);
        assert_eq!(m, SwitchingMap::from_flags(vec![true, false, true]));
    }

    #[test]
    fn word_combinators_match_bit_iteration_at_tail_lengths() {
        // lengths chosen so len % 64 ∈ {0, 1, 63} plus small/multi-word
        for n in [64usize, 128, 192, 1, 65, 129, 63, 127, 191] {
            let flags: Vec<bool> = (0..n).map(|i| i % 3 == 0 || i % 13 == 5).collect();
            let m = SwitchingMap::from_flags(flags.clone());

            // popcount_words sums to sensitive_count and covers all words
            assert_eq!(m.popcount_words().count(), n.div_ceil(64), "len {n}");
            assert_eq!(
                m.popcount_words().map(|c| c as usize).sum::<usize>(),
                m.sensitive_count(),
                "len {n}"
            );

            // iter_words reconstructs exactly the sensitive index set
            let from_words: Vec<usize> = m
                .iter_words()
                .flat_map(|(wi, w)| {
                    (0..64).filter_map(move |b| (w >> b & 1 == 1).then_some(wi * 64 + b))
                })
                .collect();
            let want: Vec<usize> = (0..n).filter(|&i| flags[i]).collect();
            assert_eq!(from_words, want, "len {n}");
        }
    }

    #[test]
    fn iter_words_skips_zero_words() {
        // 3 words; middle word all-insensitive
        let flags: Vec<bool> = (0..192)
            .map(|i| !(64..128).contains(&i) && i % 5 == 0)
            .collect();
        let m = SwitchingMap::from_flags(flags);
        let indices: Vec<usize> = m.iter_words().map(|(wi, _)| wi).collect();
        assert_eq!(indices, vec![0, 2]);

        assert_eq!(SwitchingMap::all_insensitive(200).iter_words().count(), 0);
        assert_eq!(SwitchingMap::empty().iter_words().count(), 0);
        assert_eq!(SwitchingMap::empty().popcount_words().count(), 0);
    }

    #[test]
    fn for_each_sensitive_in_matches_filter() {
        let flags: Vec<bool> = (0..300).map(|i| i % 5 == 0 || i % 17 == 0).collect();
        let m = SwitchingMap::from_flags(flags.clone());
        for (start, end) in [
            (0, 0),
            (0, 300),
            (3, 64),
            (64, 128),
            (60, 70),
            (1, 299),
            (130, 131),
            (0, 1),
            (63, 65),
            (128, 191),
        ] {
            let mut got = Vec::new();
            m.for_each_sensitive_in(start, end, |i| got.push(i));
            let want: Vec<usize> = (start..end).filter(|&i| flags[i]).collect();
            assert_eq!(got, want, "{start}..{end}");
        }
    }

    #[test]
    fn tail_word_straggler_bits_survive_word_iteration() {
        // a single set bit at every boundary-adjacent position
        for n in [64usize, 65, 127, 191] {
            for hot in [0, 1, 62, 63, n - 1] {
                let mut flags = vec![false; n];
                flags[hot] = true;
                let m = SwitchingMap::from_flags(flags);
                let got: Vec<(usize, u64)> = m.iter_words().collect();
                assert_eq!(got.len(), 1, "len {n} hot {hot}");
                assert_eq!(got[0].0, hot / 64, "len {n} hot {hot}");
                assert_eq!(got[0].1, 1u64 << (hot % 64), "len {n} hot {hot}");
                assert_eq!(m.popcount_words().sum::<u32>(), 1, "len {n} hot {hot}");
            }
        }
    }

    #[test]
    fn builders_agree_whichever_storage_holds_the_words() {
        // 0 and 1 words inline; 2 and 3 words on the heap, built there
        // directly or grown there from inline storage.
        for n in [0usize, 1, 63, 64, 65, 128, 129] {
            let flags: Vec<bool> = (0..n).map(|i| i % 3 == 0 || i + 1 == n).collect();
            let values: Vec<f32> = flags.iter().map(|&f| if f { 1.0 } else { -1.0 }).collect();
            let want = SwitchingMap::from_flags(flags.clone());
            let mut built = vec![
                ("map_slice", SwitchingPolicy::relu(0.0).map_slice(&values)),
                (
                    "from_packed",
                    SwitchingMap::from_packed(&want.packed_bytes(), n),
                ),
            ];
            let mut pushed = SwitchingMap::empty();
            for &f in &flags {
                pushed.push(f);
            }
            built.push(("push", pushed));
            // an unaligned split, and the word-aligned fast path
            for at in [n / 2, n.min(64)] {
                let mut joined = SwitchingMap::from_flags(flags[..at].to_vec());
                joined.extend_from_map(&SwitchingMap::from_flags(flags[at..].to_vec()));
                built.push(("extend_from_map", joined));
            }
            for (what, m) in &built {
                assert_eq!(m, &want, "{what} len {n}");
                assert_eq!(m.len(), n, "{what} len {n}");
                assert_eq!(m.words(), want.words(), "{what} len {n}");
                assert_eq!(m.words().len(), n.div_ceil(64), "{what} len {n}");
                assert_eq!(m.packed_bytes(), want.packed_bytes(), "{what} len {n}");
                assert_eq!(
                    m.sensitive_count(),
                    want.sensitive_count(),
                    "{what} len {n}"
                );
                assert!(
                    m.popcount_words().eq(want.popcount_words()),
                    "{what} len {n}"
                );
                assert_eq!(flags_of(m), flags, "{what} len {n}");
            }

            let all = SwitchingMap::all_sensitive(n);
            let mut grown = SwitchingMap::empty();
            grown.extend(std::iter::repeat_n(true, n));
            for m in [&grown, &all.clone()] {
                assert_eq!(m, &all, "all-sensitive len {n}");
                assert_eq!(m.words(), all.words(), "all-sensitive len {n}");
                assert_eq!(
                    m.packed_bytes(),
                    all.packed_bytes(),
                    "all-sensitive len {n}"
                );
                assert_eq!(m.sensitive_count(), n, "all-sensitive len {n}");
            }
            if n > 0 {
                assert_ne!(all, SwitchingMap::all_insensitive(n), "len {n}");
            }
        }
    }

    #[test]
    fn higher_relu_theta_means_more_insensitive() {
        let y = Tensor::from_fn(&[100], |i| i as f32 / 50.0 - 1.0); // [-1, 1)
        let low = SwitchingPolicy::relu(-0.5).map(&y).insensitive_fraction();
        let high = SwitchingPolicy::relu(0.5).map(&y).insensitive_fraction();
        assert!(high > low);
    }

    #[test]
    fn lower_tanh_theta_means_more_insensitive() {
        let y = Tensor::from_fn(&[100], |i| i as f32 / 10.0 - 5.0); // [-5, 5)
        let tight = SwitchingPolicy::tanh(1.0).map(&y).insensitive_fraction();
        let loose = SwitchingPolicy::tanh(4.0).map(&y).insensitive_fraction();
        assert!(tight > loose);
    }
}
