//! Seeded request streams. The seed fixes every circuit a workload
//! sends and the order it sends them in; the program under test only
//! ever receives the generated SPICE text.
//!
//! Circuit sizes are stratified: the i-th of `n` circuits draws its
//! size quantile from `[i/n, (i+1)/n)` and the eight circuitgen
//! families rotate, so every seed gets the same size and family mix
//! while the circuits themselves (chip seeds, block picks, wiring) and
//! their order change with the seed.

use paragraph_circuitgen::{
    compose_chip, Family, FAMILY_ANALOG, FAMILY_DAC, FAMILY_DIGITAL, FAMILY_IO, FAMILY_MEM,
    FAMILY_PLL, FAMILY_PMU, FAMILY_REF,
};
use paragraph_netlist::{write_flat_spice, Circuit};

/// SplitMix64: a tiny, well-mixed, seedable generator, so the streams
/// depend on nothing but the seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator starting from `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// A generator for the named part of a run, independent of the
    /// other parts drawn from the same run seed.
    pub fn derive(seed: u64, tag: &str) -> Self {
        let tag_hash = tag.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        let mut mixer = Self(seed ^ tag_hash);
        Self(mixer.next_u64())
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1_u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The circuitgen block families, with the mean devices per block each
/// produces (measured over many chips), used to aim a circuit at a
/// device count.
pub const FAMILIES: [(&str, Family, f64); 8] = [
    ("digital", FAMILY_DIGITAL, 6.6),
    ("analog", FAMILY_ANALOG, 5.7),
    ("io", FAMILY_IO, 5.1),
    ("dac", FAMILY_DAC, 8.5),
    ("pll", FAMILY_PLL, 6.9),
    ("mem", FAMILY_MEM, 15.7),
    ("pmu", FAMILY_PMU, 7.8),
    ("ref", FAMILY_REF, 5.4),
];

/// Target device counts `lo + (hi - lo) * u^skew` for `u` uniform in
/// `[0, 1)`; the mean is `lo + (hi - lo) / (skew + 1)`.
#[derive(Debug, Clone, Copy)]
pub struct SizeDist {
    /// Smallest target.
    pub lo: f64,
    /// Largest target.
    pub hi: f64,
    /// Right skew (1 = uniform).
    pub skew: f64,
}

/// `ensemble_miss`: 35–750 devices, mean ≈ 178.
pub const MISS_SIZES: SizeDist = SizeDist {
    lo: 35.0,
    hi: 750.0,
    skew: 4.0,
};
/// `ensemble_hit` working set: 200–1400 devices, mean ≈ 461.
pub const HIT_SIZES: SizeDist = SizeDist {
    lo: 200.0,
    hi: 1400.0,
    skew: 3.6,
};
/// `int8_burst8`: 15–300 devices, mean ≈ 75.
pub const BURST_SIZES: SizeDist = SizeDist {
    lo: 15.0,
    hi: 300.0,
    skew: 3.75,
};

/// Circuits in the `ensemble_hit` working set.
pub const HIT_WORKING_SET: usize = 64;

/// One generated circuit as the program receives it.
#[derive(Debug, Clone, PartialEq)]
pub struct Input {
    /// Index into [`FAMILIES`].
    pub family: usize,
    /// Flat SPICE text.
    pub netlist: String,
}

/// Generates `n` circuits with stratified sizes from `sizes`, in seeded
/// order.
pub fn inputs(rng: &mut SplitMix64, n: usize, sizes: SizeDist, name: &str) -> Vec<Input> {
    let mut specs: Vec<(usize, usize, u64)> = (0..n)
        .map(|i| {
            let u = (i as f64 + rng.next_f64()) / n as f64;
            let devices = sizes.lo + (sizes.hi - sizes.lo) * u.powf(sizes.skew);
            let family = i % FAMILIES.len();
            let blocks = (devices / FAMILIES[family].2).round().max(2.0) as usize;
            (family, blocks, rng.next_u64())
        })
        .collect();
    rng.shuffle(&mut specs);
    specs
        .into_iter()
        .enumerate()
        .map(|(i, (family, blocks, chip_seed))| Input {
            family,
            netlist: write_flat_spice(&chip(&format!("{name}{i}"), family, blocks, chip_seed)),
        })
        .collect()
}

fn chip(name: &str, family: usize, blocks: usize, chip_seed: u64) -> Circuit {
    compose_chip(name, chip_seed, FAMILIES[family].1, blocks)
}

/// A serving workload's op stream: op `i` sends `inputs[order[i]]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// Distinct circuits.
    pub inputs: Vec<Input>,
    /// Which input each timed op sends.
    pub order: Vec<usize>,
    /// Untimed circuits sent before the timed phase (distinct from
    /// `inputs`).
    pub warmup: Vec<Input>,
}

impl Stream {
    /// The input op `i` sends.
    pub fn op(&self, i: usize) -> &Input {
        &self.inputs[self.order[i]]
    }

    /// Frees the SPICE text of every input `keep` rejects once its
    /// request is encoded (the request carries it), so the benchmark's
    /// own buffers weigh less in the process's peak RSS.
    pub fn forget_netlists(&mut self, keep: impl Fn(usize) -> bool) {
        for (i, input) in self.inputs.iter_mut().enumerate() {
            if !keep(i) {
                input.netlist = String::new();
            }
        }
    }
}

/// `blocks` consecutive blocks of `ops / blocks` circuits, each block
/// stratified over the whole size range, so every block carries the
/// same size and family mix.
fn blocks(
    rng: &mut SplitMix64,
    ops: usize,
    blocks: usize,
    sizes: SizeDist,
    name: &str,
) -> Vec<Input> {
    let blocks = blocks.clamp(1, ops.max(1));
    (0..blocks)
        .flat_map(|b| {
            let n = (b + 1) * ops / blocks - b * ops / blocks;
            inputs(rng, n, sizes, &format!("{name}{b}_"))
        })
        .collect()
}

/// `ensemble_miss`: `ops` distinct circuits, each sent once, laid out
/// in `segments` stratified blocks.
pub fn ensemble_miss(seed: u64, ops: usize, warmup: usize, segments: usize) -> Stream {
    let mut rng = SplitMix64::derive(seed, "ensemble_miss");
    let inputs = blocks(&mut rng, ops, segments, MISS_SIZES, "miss");
    let warmup = self::inputs(&mut rng, warmup, MISS_SIZES, "warm");
    Stream {
        order: (0..inputs.len()).collect(),
        inputs,
        warmup,
    }
}

/// `ensemble_hit`: a working set of [`HIT_WORKING_SET`] circuits, sent
/// as back-to-back seeded permutations so every circuit is hit equally
/// often.
pub fn ensemble_hit(seed: u64, ops: usize) -> Stream {
    let mut rng = SplitMix64::derive(seed, "ensemble_hit");
    let inputs = self::inputs(&mut rng, HIT_WORKING_SET, HIT_SIZES, "hit");
    let mut order = Vec::with_capacity(ops + HIT_WORKING_SET);
    while order.len() < ops {
        let mut pass: Vec<usize> = (0..HIT_WORKING_SET).collect();
        rng.shuffle(&mut pass);
        order.extend(pass);
    }
    order.truncate(ops);
    Stream {
        inputs,
        order,
        warmup: Vec::new(),
    }
}

/// `int8_burst8`: `ops` distinct small circuits, sent in bursts of 8,
/// laid out in `segments` stratified blocks.
pub fn int8_burst(seed: u64, ops: usize, warmup: usize, segments: usize) -> Stream {
    let mut rng = SplitMix64::derive(seed, "int8_burst8");
    let inputs = blocks(&mut rng, ops, segments, BURST_SIZES, "burst");
    let warmup = self::inputs(&mut rng, warmup, BURST_SIZES, "warm");
    Stream {
        order: (0..inputs.len()).collect(),
        inputs,
        warmup,
    }
}

/// `k` distinct op indices out of `0..n`, seeded.
pub fn sample_indices(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut rng = SplitMix64::derive(seed, "check_sample");
    let mut all: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut all);
    all.truncate(k.min(n));
    all.sort_unstable();
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every byte a stream sends, in order.
    fn bytes(stream: &Stream) -> Vec<u8> {
        let sent = stream.order.iter().map(|&i| &stream.inputs[i]);
        let mut out = Vec::new();
        for input in stream.warmup.iter().chain(sent) {
            out.extend_from_slice(input.netlist.as_bytes());
            out.push(0);
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        let makers: [fn(u64) -> Stream; 3] = [
            |s| ensemble_miss(s, 24, 4, 2),
            |s| ensemble_hit(s, 100),
            |s| int8_burst(s, 16, 8, 2),
        ];
        for make in makers {
            let a: Stream = make(11);
            let b: Stream = make(11);
            let c: Stream = make(12);
            assert_eq!(bytes(&a), bytes(&b));
            assert_eq!(a, b);
            assert_ne!(
                bytes(&a),
                bytes(&c),
                "a different seed must change the stream"
            );
        }
    }

    #[test]
    fn sizes_are_stratified_and_in_range() {
        let s = ensemble_miss(3, 64, 0, 1);
        let devices: Vec<usize> = s
            .inputs
            .iter()
            .map(|i| crate::check::circuit(&i.netlist).unwrap().num_devices())
            .collect();
        let mean = devices.iter().sum::<usize>() as f64 / 64.0;
        assert!((100.0..260.0).contains(&mean), "mean devices {mean}");
        assert!(devices.iter().all(|&d| d >= 8), "{devices:?}");
        let mut families = [0_usize; 8];
        for i in &s.inputs {
            families[i.family] += 1;
        }
        assert!(families.iter().all(|&n| n == 8), "{families:?}");
    }

    #[test]
    fn hit_order_cycles_the_working_set() {
        let s = ensemble_hit(5, 2 * HIT_WORKING_SET);
        let mut counts = vec![0; HIT_WORKING_SET];
        for &i in &s.order {
            counts[i] += 1;
        }
        assert!(counts.iter().all(|&c| c == 2));
    }
}
