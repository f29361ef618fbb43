//! The one seed stream of the repository's generated tests and programs.

/// SplitMix64 (Steele, Lea and Flood, 2014): a seed's stream of draws.
/// The same seed yields the same stream on every platform, so a
/// generated case is reproduced by its seed alone.
///
/// # Examples
///
/// ```
/// use p_ast::Draws;
///
/// let mut a = Draws::new(7);
/// let mut b = Draws::new(7);
/// assert_eq!(a.next(), b.next());
/// assert!(a.below(3) < 3);
/// ```
#[derive(Debug, Clone)]
pub struct Draws(u64);

impl Draws {
    /// The stream of `seed`.
    pub fn new(seed: u64) -> Draws {
        Draws(seed)
    }

    /// The next 64 bits.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True with probability `1 / n`.
    pub fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }
}
