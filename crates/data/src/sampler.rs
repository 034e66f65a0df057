//! Monte-Carlo sampling of instances from a dictionary.
//!
//! The exhaustive procedures enumerate every instance of a small tuple space.
//! When the tuple space is too large for that (e.g. the hospital-scale
//! dictionaries sketched in Section 3.2, or the growing domains of
//! Section 6.2), probabilities and leakage are *estimated* by sampling
//! instances from the tuple-independent distribution — each tuple is included
//! independently with its dictionary probability.

use crate::bitset::BitSet;
use crate::dictionary::Dictionary;
use rand::Rng;

/// Samples database instances from a [`Dictionary`].
#[derive(Debug, Clone)]
pub struct InstanceSampler {
    probs: Vec<f64>,
}

impl InstanceSampler {
    /// Creates a sampler for the given dictionary.
    pub fn new(dictionary: &Dictionary) -> Self {
        InstanceSampler {
            probs: dictionary.probabilities_f64(),
        }
    }

    /// Samples one instance as a [`BitSet`] over the tuple space: each tuple
    /// is included independently with its probability. This is the
    /// representation the shared-sample probabilistic kernel keeps its world
    /// pool in — no per-tuple clone, no `Instance` hash set.
    ///
    /// Consumes exactly one `rng.gen::<f64>()` per tuple of the space, so a
    /// fixed seed yields the same world.
    pub fn sample_bitset<R: Rng + ?Sized>(&self, rng: &mut R) -> BitSet {
        let mut bits = BitSet::new(self.probs.len());
        for (i, &p) in self.probs.iter().enumerate() {
            if rng.gen::<f64>() < p {
                bits.insert(i);
            }
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio::Ratio;
    use crate::schema::Schema;
    use crate::tuple_space::TupleSpace;
    use crate::value::Domain;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dict(p: Ratio) -> Dictionary {
        let mut schema = Schema::new();
        schema.add_relation("R", &["x", "y"]);
        let domain = Domain::with_constants(["a", "b"]);
        let space = TupleSpace::full(&schema, &domain).unwrap();
        Dictionary::uniform(space, p).unwrap()
    }

    #[test]
    fn sample_size_concentrates_around_expectation() {
        let d = dict(Ratio::new(1, 2));
        let sampler = InstanceSampler::new(&d);
        let mut rng = StdRng::seed_from_u64(7);
        let total: usize = (0..2000)
            .map(|_| sampler.sample_bitset(&mut rng).count())
            .sum();
        let mean = total as f64 / 2000.0;
        // expected size is 2 tuples (4 tuples at p = 1/2)
        assert!((mean - 2.0).abs() < 0.15, "mean size {mean} too far from 2");
    }

    #[test]
    fn degenerate_probabilities_are_respected() {
        let d0 = dict(Ratio::ZERO);
        let d1 = dict(Ratio::ONE);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(InstanceSampler::new(&d0).sample_bitset(&mut rng).count(), 0);
        assert_eq!(InstanceSampler::new(&d1).sample_bitset(&mut rng).count(), 4);
    }

    #[test]
    fn estimate_recovers_known_probability() {
        // Each tuple's inclusion frequency recovers its own probability.
        let space = dict(Ratio::ONE).space().clone();
        let probs = vec![
            Ratio::new(1, 2),
            Ratio::new(1, 4),
            Ratio::new(3, 4),
            Ratio::new(1, 3),
        ];
        let d = Dictionary::from_probabilities(space, probs.clone()).unwrap();
        let sampler = InstanceSampler::new(&d);
        let mut rng = StdRng::seed_from_u64(42);
        let worlds: Vec<BitSet> = (0..4000).map(|_| sampler.sample_bitset(&mut rng)).collect();
        for (t, p) in probs.iter().enumerate() {
            let est = worlds.iter().filter(|w| w.contains(t)).count() as f64 / 4000.0;
            assert!(
                (est - p.to_f64()).abs() < 0.05,
                "tuple {t}: estimate {est} too far from {p}"
            );
        }
    }
}
