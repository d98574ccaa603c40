//! Bit-pins of `optimize_batched`'s whole output.
//!
//! Every RNG draw of the GA happens while it breeds, so a change to how
//! it breeds — buffers, the niching sibling check — that moves one draw
//! moves the genomes and with them every value below. Seeds 1–8, with
//! niching off and on, on two small landscapes where converging
//! populations breed duplicate siblings: an all-integer lattice (the
//! shape of ATOM's decision genomes) and a mixed one, whose float genes
//! collide only when a child is a mutation-free copy of its parent.

use atom_ga::{optimize_batched, Budget, Evaluation, GaOptions, GaResult, Gene, GeneValue};

/// FNV-1a over bytes (f64s enter by their bit pattern).
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

/// What one search returned: `(seed, niching, best genes, evaluations,
/// generations, niche_dedup, digest)`. Float genes enter by their bit
/// pattern; the digest covers the best evaluation, `history` and
/// `mean_history`, bit for bit.
type Pin = (u64, bool, [u64; 3], usize, usize, usize, u64);

fn pin(seed: u64, niching: bool, result: &GaResult) -> Pin {
    let mut d = Digest::new();
    d.word(result.best.objective.to_bits());
    d.word(result.best.violation.to_bits());
    d.floats(&result.history);
    d.floats(&result.mean_history);
    let gene = |v: &GeneValue| match *v {
        GeneValue::Int(x) => x as u64,
        GeneValue::Float(x) => x.to_bits(),
    };
    let best = &result.best_values;
    (
        seed,
        niching,
        [gene(&best[0]), gene(&best[1]), gene(&best[2])],
        result.evaluations,
        result.generations,
        result.niche_dedup,
        d.0,
    )
}

/// Seeds 1–8, niching off then on.
fn runs() -> impl Iterator<Item = (u64, bool)> {
    (1..=8).flat_map(|seed| [(seed, false), (seed, true)])
}

/// A 6 × 6 × 3 lattice with its optimum at (4, 2, 1) and a constraint
/// that makes a third of it infeasible.
fn lattice(seed: u64, niching: bool) -> Pin {
    let genome = [
        Gene::Int { lo: 0, hi: 5 },
        Gene::Int { lo: 0, hi: 5 },
        Gene::Int { lo: 1, hi: 3 },
    ];
    let options = GaOptions {
        budget: Budget::Evaluations(300),
        seed,
        niching,
    };
    let result = optimize_batched(&genome, options, |batch| {
        batch
            .iter()
            .map(|g| {
                let (x, y, z) = (g[0].as_f64(), g[1].as_f64(), g[2].as_f64());
                let objective = -(x - 4.0).powi(2) - (y - 2.0).powi(2) - 0.5 * z;
                if x + y > 7.0 {
                    Evaluation::infeasible(objective, x + y - 7.0)
                } else {
                    Evaluation::feasible(objective)
                }
            })
            .collect()
    });
    pin(seed, niching, &result)
}

/// Two integer genes and one float gene, scored like a replica count,
/// a share index and a continuous knob.
fn mixed(seed: u64, niching: bool) -> Pin {
    let genome = [
        Gene::Int { lo: 1, hi: 4 },
        Gene::Int { lo: 1, hi: 4 },
        Gene::Float { lo: 0.0, hi: 1.0 },
    ];
    let options = GaOptions {
        budget: Budget::Generations(20),
        seed,
        niching,
    };
    let result = optimize_batched(&genome, options, |batch| {
        batch
            .iter()
            .map(|g| {
                let (r, s, k) = (g[0].as_f64(), g[1].as_f64(), g[2].as_f64());
                Evaluation::feasible(r * s.sqrt() - 0.3 * r * s - (k - 0.25).powi(2))
            })
            .collect()
    });
    pin(seed, niching, &result)
}

#[test]
fn lattice_searches_are_pinned() {
    let expect: [Pin; 16] = [
        (1, false, [4, 2, 1], 310, 21, 0, 0x61c962e06d54bd81),
        (1, true, [4, 2, 1], 310, 21, 173, 0x8c4f1840376dba13),
        (2, false, [4, 2, 1], 310, 21, 0, 0x3becac6a067aabc2),
        (2, true, [4, 2, 1], 310, 21, 170, 0xc97c8ad10095fd6d),
        (3, false, [4, 2, 1], 310, 21, 0, 0x9f9b03c1ca15c1f1),
        (3, true, [4, 2, 1], 310, 21, 158, 0x3ecc590d1e8c90b3),
        (4, false, [4, 2, 1], 310, 21, 0, 0x123704f76c58d19f),
        (4, true, [4, 2, 1], 310, 21, 170, 0xe2bdd5c904995366),
        (5, false, [4, 2, 1], 310, 21, 0, 0xe73f7a18c71d09f1),
        (5, true, [4, 2, 1], 310, 21, 160, 0xf654ec7fc11d2668),
        (6, false, [4, 2, 1], 310, 21, 0, 0xe98df0817d7b9ff4),
        (6, true, [4, 2, 1], 310, 21, 176, 0xda96b2e81be24db7),
        (7, false, [4, 2, 1], 310, 21, 0, 0x870b255badf2b4a8),
        (7, true, [4, 2, 1], 310, 21, 168, 0x0c551e408771b8be),
        (8, false, [4, 2, 1], 310, 21, 0, 0x278e8df71e1bec10),
        (8, true, [4, 2, 1], 310, 21, 159, 0xcb5ae4ca6db31a67),
    ];
    let got: Vec<Pin> = runs()
        .map(|(seed, niching)| lattice(seed, niching))
        .collect();
    assert_eq!(got, expect);
}

#[test]
fn mixed_searches_are_pinned() {
    #[rustfmt::skip]
    let expect: [Pin; 16] = [
        (1, false, [4, 3, 0x3fd001ad0573903a], 296, 20, 0, 0x7ced38d1a402f39d),
        (1, true, [4, 3, 0x3fcffffff679af86], 296, 20, 13, 0xb088ce9ea2106e1d),
        (2, false, [4, 3, 0x3fd016ef6553ce70], 296, 20, 0, 0x0849fd1a7588a85a),
        (2, true, [4, 3, 0x3fcfef920606b67c], 296, 20, 20, 0xe6889895d834966f),
        (3, false, [4, 3, 0x3fcff0c767fdc833], 296, 20, 0, 0x6dffc4ebcb0190d4),
        (3, true, [4, 3, 0x3fd00001b0c81300], 296, 20, 11, 0x5635623d0edd6b40),
        (4, false, [4, 3, 0x3fd0d07f509e4173], 296, 20, 0, 0xd45cf44aa13fc022),
        (4, true, [4, 3, 0x3fd00000ea51b3cc], 296, 20, 15, 0xe1b7e93b861b01ed),
        (5, false, [4, 3, 0x3fd000a7b7f120ab], 296, 20, 0, 0x322b53284db3eae2),
        (5, true, [4, 3, 0x3fd004d3a0f437fb], 296, 20, 19, 0x59090251dcd7bc79),
        (6, false, [4, 3, 0x3fd0000c6e261266], 296, 20, 0, 0xa7238efe3fbe8c25),
        (6, true, [4, 3, 0x3fd041ea49825378], 296, 20, 31, 0x67e6904947566098),
        (7, false, [4, 3, 0x3fcfffbcacc0a2f0], 296, 20, 0, 0x7d343bd1a3e7b38a),
        (7, true, [4, 3, 0x3fd0006d9f3ad13f], 296, 20, 12, 0x0be11c3404882aca),
        (8, false, [4, 3, 0x3fd00afb53002f5f], 296, 20, 0, 0x259e542ea1eb1f6e),
        (8, true, [4, 3, 0x3fcfff3a0cd7db7d], 296, 20, 22, 0x4d6cdef00aa3a949),
    ];
    let got: Vec<Pin> = runs().map(|(seed, niching)| mixed(seed, niching)).collect();
    assert_eq!(got, expect);
}
