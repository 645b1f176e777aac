//! The benchmark's own seeded input generators.
//!
//! Every input a workload feeds the kernel comes from here, so the same
//! `--seed` always gives the same inputs and the kernel's own RNGs never
//! decide what the benchmark asks for.

/// SplitMix64: small, fast, and good enough for workload shaping.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on the independent stream `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n > 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// True with probability `permille / 1000`.
    pub fn permille(&mut self, permille: u64) -> bool {
        self.below(1000) < permille
    }
}

/// Inverse-CDF sampler of a Zipf distribution over ranks `0..n`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += (rank as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        (self.cdf.partition_point(|&c| c <= u) as u64).min(self.cdf.len() as u64 - 1)
    }
}

/// Scatters popularity rank `rank` over `0..n` with a fixed odd
/// multiplier, so popularity is not correlated with page order. A
/// bijection whenever `n` shares no factor with the multiplier.
pub fn scatter(rank: u64, n: u64) -> u64 {
    rank.wrapping_mul(2_654_435_761) % n
}

/// One generated access: a page index within a region, plus the write
/// bit. Packed into a `u32` so large traces stay small.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op(u32);

const WRITE_BIT: u32 = 1 << 31;

impl Op {
    pub fn new(page: u64, write: bool) -> Self {
        assert!(page < u64::from(WRITE_BIT), "page index {page} too large");
        Op(page as u32 | if write { WRITE_BIT } else { 0 })
    }

    pub fn page(self) -> u64 {
        u64::from(self.0 & !WRITE_BIT)
    }

    pub fn write(self) -> bool {
        self.0 & WRITE_BIT != 0
    }
}

/// `n` key-value operations: Zipf(`s`) over `keys` pages, `put_permille`
/// of them writes.
pub fn kv_ops(seed: u64, stream: u64, n: u64, keys: u64, s: f64, put_permille: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed, stream);
    let zipf = Zipf::new(keys as usize, s);
    (0..n)
        .map(|_| {
            let page = scatter(zipf.sample(&mut rng), keys);
            Op::new(page, rng.permille(put_permille))
        })
        .collect()
}

/// `n` multi-tenant operations: a Zipf(`s`) choice of tenant (scattered
/// over the population), a uniform page within that tenant's region of
/// `pages` pages, `write_permille` of them writes. The page field of the
/// returned [`Op`] is `tenant * pages + page`.
pub fn tenant_ops(
    seed: u64,
    n: u64,
    tenants: u64,
    pages: u64,
    s: f64,
    write_permille: u64,
) -> Vec<Op> {
    let mut rng = Rng::new(seed, 3);
    let zipf = Zipf::new(tenants as usize, s);
    (0..n)
        .map(|_| {
            let tenant = scatter(zipf.sample(&mut rng), tenants);
            let page = rng.below(pages);
            Op::new(tenant * pages + page, rng.permille(write_permille))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        let a = kv_ops(7, 1, 5_000, 1_024, 1.1, 200);
        assert_eq!(a, kv_ops(7, 1, 5_000, 1_024, 1.1, 200));
        assert_ne!(a, kv_ops(8, 1, 5_000, 1_024, 1.1, 200));
        assert_ne!(a, kv_ops(7, 2, 5_000, 1_024, 1.1, 200), "streams differ");
        let t = tenant_ops(7, 5_000, 96, 16, 1.1, 350);
        assert_eq!(t, tenant_ops(7, 5_000, 96, 16, 1.1, 350));
        assert_ne!(t, tenant_ops(8, 5_000, 96, 16, 1.1, 350));
    }

    #[test]
    fn mixes_and_ranges_are_as_configured() {
        let ops = kv_ops(1, 1, 100_000, 1_024, 1.1, 200);
        let puts = ops.iter().filter(|o| o.write()).count() as f64 / ops.len() as f64;
        assert!((0.19..0.21).contains(&puts), "put share {puts}");
        assert!(ops.iter().all(|o| o.page() < 1_024));
        // Zipf skew: the hottest scattered page carries far more than a
        // uniform share.
        let hottest = ops.iter().filter(|o| o.page() == scatter(0, 1_024)).count();
        assert!(
            hottest > 100_000 / 1_024 * 20,
            "hottest page seen {hottest}×"
        );
        let t = tenant_ops(1, 100_000, 96, 16, 1.1, 350);
        assert!(t.iter().all(|o| o.page() < 96 * 16));
    }

    #[test]
    fn scatter_is_a_bijection_on_the_workload_sizes() {
        for n in [96u64, 16_384] {
            let mut seen = vec![false; n as usize];
            for r in 0..n {
                seen[scatter(r, n) as usize] = true;
            }
            assert!(seen.iter().all(|&s| s), "not a bijection on {n}");
        }
    }
}
