//! Adversarial scenario generators for the differential fuzzer.
//!
//! Each [`Family`] targets a specific stress axis of the token machines:
//!
//! - [`Family::Expr`]: random closed expressions (the baseline family,
//!   sharing [`super::xexpr`] with `tests/properties.rs`);
//! - [`Family::HotSkew`]: Zipf-skewed I-structure read addresses where
//!   the hottest cell's producer is delayed behind a dependency chain,
//!   so deferred reads pile up on one shard;
//! - [`Family::DeferChain`]: `a[i] <- a[i+1] + 1` cascades — every read
//!   defers until a single seed write at the far end resolves the whole
//!   chain in a wavefront;
//! - [`Family::TagRecursion`]: deep (optionally mutual) recursion, one
//!   fresh context and tag domain per call;
//! - [`Family::FanoutJoin`]: one input fanning out to many parallel
//!   calls whose results join in a reduction tree;
//! - [`Family::MultiTenant`]: several independent expression programs
//!   merged with [`ttda_core::Program::merge`] and launched as
//!   concurrent jobs;
//! - [`Family::StoreSkew`]: raw I-structure operation sequences with
//!   Zipf-hot addresses, replayed in lockstep against the enum
//!   reference store and a HEP full/empty memory (no Id program).
//!
//! A [`Scenario`] is produced deterministically from `(family, seed)` by
//! [`Scenario::generate`]; [`Scenario::shrink`] yields strictly simpler
//! candidate scenarios for delta-debug minimization.

use ttda_sim::{SimRng, Zipf};

use super::xexpr::{self, XExpr};

/// The generator families, in corpus-file order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Random closed arithmetic expressions over two inputs.
    Expr,
    /// Zipf-hot I-structure reads against a slow producer.
    HotSkew,
    /// Linear deferred-read cascades.
    DeferChain,
    /// Deep/mutual recursion (context and tag pressure).
    TagRecursion,
    /// Wide fan-out with a join reduction.
    FanoutJoin,
    /// Merged multiprogram tenants under `submit`.
    MultiTenant,
    /// Raw store op-sequences (packed vs enum vs HEP oracle).
    StoreSkew,
}

impl Family {
    /// Every family, in a fixed order (used by corpus tables and CLI).
    pub const ALL: [Family; 7] = [
        Family::Expr,
        Family::HotSkew,
        Family::DeferChain,
        Family::TagRecursion,
        Family::FanoutJoin,
        Family::MultiTenant,
        Family::StoreSkew,
    ];

    /// The stable name used in corpus files and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Family::Expr => "expr",
            Family::HotSkew => "hot-skew",
            Family::DeferChain => "defer-chain",
            Family::TagRecursion => "tag-recursion",
            Family::FanoutJoin => "fanout-join",
            Family::MultiTenant => "multi-tenant",
            Family::StoreSkew => "store-skew",
        }
    }

    /// Parses a [`Family::name`] back (used by the corpus parser and the
    /// `--families` CLI flag).
    pub fn parse(s: &str) -> Option<Family> {
        Family::ALL.iter().copied().find(|f| f.name() == s)
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A random expression program: `def main(x, y) = <expr>;`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExprSpec {
    /// The expression body.
    pub expr: XExpr,
    /// Value for input `x`.
    pub x: i64,
    /// Value for input `y`.
    pub y: i64,
}

impl ExprSpec {
    /// Renders the Id source.
    pub fn source(&self) -> String {
        format!("def main(x, y) = {};", xexpr::to_src(&self.expr))
    }

    /// The reference answer.
    pub fn expected(&self) -> i64 {
        xexpr::eval(&self.expr, self.x, self.y, 0)
    }

    fn gen(rng: &mut SimRng) -> ExprSpec {
        let depth = rng.gen_range(2usize..=5);
        ExprSpec {
            expr: xexpr::gen_expr(rng, depth, false),
            x: rng.gen_range(-1000i64..=1000),
            y: rng.gen_range(-1000i64..=1000),
        }
    }

    fn shrink(&self) -> Vec<ExprSpec> {
        let mut out: Vec<ExprSpec> = xexpr::shrink(&self.expr)
            .into_iter()
            .map(|e| ExprSpec {
                expr: e,
                ..self.clone()
            })
            .collect();
        if self.x != 0 {
            out.push(ExprSpec {
                x: 0,
                ..self.clone()
            });
            out.push(ExprSpec {
                x: self.x / 2,
                ..self.clone()
            });
        }
        if self.y != 0 {
            out.push(ExprSpec {
                y: 0,
                ..self.clone()
            });
            out.push(ExprSpec {
                y: self.y / 2,
                ..self.clone()
            });
        }
        out
    }
}

/// Hot-key skew: `reads` are Zipf-sampled addresses into an array whose
/// cell 0 (the Zipf head) is produced only after an addition chain of
/// `chain.len()` dependent steps — consumers of the hot cell all defer.
#[derive(Debug, Clone, PartialEq)]
pub struct HotSkewSpec {
    /// Array length.
    pub size: usize,
    /// Read addresses (Zipf-hot toward 0), each one read term.
    pub reads: Vec<usize>,
    /// Constants of the hot cell's producer chain `((t + c0) + c1) …`.
    pub chain: Vec<i64>,
    /// The single program input `t`.
    pub t: i64,
}

impl HotSkewSpec {
    /// Renders the Id source.
    pub fn source(&self) -> String {
        let mut body = format!("  {{ a = array({});\n", self.size);
        let mut hot = String::from("t");
        for c in &self.chain {
            hot = format!("({hot} + {c})");
        }
        body.push_str(&format!("    a[0] <- {hot};\n"));
        for i in 1..self.size {
            body.push_str(&format!("    a[{i}] <- (t + {i});\n"));
        }
        let sum = self
            .reads
            .iter()
            .map(|r| format!("a[{r}]"))
            .reduce(|acc, term| format!("({acc} + {term})"))
            .expect("at least one read");
        body.push_str(&format!("    {sum} }}"));
        format!("def main(t) =\n{body};")
    }

    /// The reference answer.
    pub fn expected(&self) -> i64 {
        let hot = self.chain.iter().fold(self.t, |v, c| v.wrapping_add(*c));
        self.reads
            .iter()
            .map(|&r| {
                if r == 0 {
                    hot
                } else {
                    self.t.wrapping_add(r as i64)
                }
            })
            .fold(0i64, |acc, v| acc.wrapping_add(v))
    }

    fn gen(rng: &mut SimRng) -> HotSkewSpec {
        let size = rng.gen_range(4usize..=16);
        let zipf = Zipf::new(size, 0.8 + rng.f64() * 1.7);
        let reads = (0..rng.gen_range(8usize..=40))
            .map(|_| zipf.sample(rng))
            .collect();
        let chain = (0..rng.gen_range(4usize..=24))
            .map(|_| rng.gen_range(1i64..=9))
            .collect();
        HotSkewSpec {
            size,
            reads,
            chain,
            t: rng.gen_range(-100i64..=100),
        }
    }

    fn shrink(&self) -> Vec<HotSkewSpec> {
        let mut out = Vec::new();
        if self.reads.len() > 1 {
            out.push(HotSkewSpec {
                reads: self.reads[..self.reads.len() / 2].to_vec(),
                ..self.clone()
            });
            out.push(HotSkewSpec {
                reads: self.reads[1..].to_vec(),
                ..self.clone()
            });
        }
        if !self.chain.is_empty() {
            out.push(HotSkewSpec {
                chain: self.chain[..self.chain.len() / 2].to_vec(),
                ..self.clone()
            });
        }
        if self.reads.iter().any(|&r| r != 0) {
            out.push(HotSkewSpec {
                reads: vec![0; self.reads.len()],
                ..self.clone()
            });
        }
        if self.t != 0 {
            out.push(HotSkewSpec {
                t: 0,
                ..self.clone()
            });
        }
        out
    }
}

/// A linear deferral cascade: every cell's producer reads its neighbour,
/// so all `n - 1` reads defer until the seed write at `a[n-1]` lands and
/// the chain unwinds front-to-back.
#[derive(Debug, Clone, PartialEq)]
pub struct DeferChainSpec {
    /// Number of array cells (chain length), at least 2.
    pub n: usize,
    /// Constants of the seed write's delay chain.
    pub chain: Vec<i64>,
    /// The single program input `t`.
    pub t: i64,
}

impl DeferChainSpec {
    /// Renders the Id source.
    pub fn source(&self) -> String {
        let mut body = format!("  {{ a = array({});\n", self.n);
        for i in 0..self.n - 1 {
            body.push_str(&format!("    a[{i}] <- (a[{}] + 1);\n", i + 1));
        }
        let mut seed = String::from("t");
        for c in &self.chain {
            seed = format!("({seed} + {c})");
        }
        body.push_str(&format!("    a[{}] <- {seed};\n", self.n - 1));
        body.push_str("    a[0] }");
        format!("def main(t) =\n{body};")
    }

    /// The reference answer.
    pub fn expected(&self) -> i64 {
        self.chain
            .iter()
            .fold(self.t, |v, c| v.wrapping_add(*c))
            .wrapping_add(self.n as i64 - 1)
    }

    fn gen(rng: &mut SimRng) -> DeferChainSpec {
        DeferChainSpec {
            n: rng.gen_range(4usize..=64),
            chain: (0..rng.gen_range(2usize..=12))
                .map(|_| rng.gen_range(1i64..=9))
                .collect(),
            t: rng.gen_range(-100i64..=100),
        }
    }

    fn shrink(&self) -> Vec<DeferChainSpec> {
        let mut out = Vec::new();
        if self.n > 2 {
            out.push(DeferChainSpec {
                n: (self.n / 2).max(2),
                ..self.clone()
            });
            out.push(DeferChainSpec {
                n: self.n - 1,
                ..self.clone()
            });
        }
        if !self.chain.is_empty() {
            out.push(DeferChainSpec {
                chain: self.chain[..self.chain.len() / 2].to_vec(),
                ..self.clone()
            });
        }
        if self.t != 0 {
            out.push(DeferChainSpec {
                t: 0,
                ..self.clone()
            });
        }
        out
    }
}

/// Deep recursion: either a self-recursive accumulator or a mutually
/// recursive pair. Every call allocates a context, so `depth` directly
/// stresses tag allocation and the matching store.
#[derive(Debug, Clone, PartialEq)]
pub struct TagRecursionSpec {
    /// Recursion depth.
    pub depth: u32,
    /// Mutual (`f`/`g`) rather than self-recursion.
    pub mutual: bool,
    /// Offset folded into the accumulator.
    pub offset: i64,
    /// The single program input `t`.
    pub t: i64,
}

impl TagRecursionSpec {
    /// Renders the Id source.
    pub fn source(&self) -> String {
        if self.mutual {
            format!(
                "def f(n) = if n > 0 then (g(n - 1) + 1) else 0;\n\
                 def g(n) = if n > 0 then (f(n - 1) + 2) else 1;\n\
                 def main(t) = (f({}) + (t + {}));",
                self.depth, self.offset
            )
        } else {
            format!(
                "def f(n, acc) = if n > 0 then f(n - 1, (acc + n)) else acc;\n\
                 def main(t) = f({}, (t + {}));",
                self.depth, self.offset
            )
        }
    }

    /// The reference answer.
    pub fn expected(&self) -> i64 {
        if self.mutual {
            let (mut f, mut g) = (0i64, 1i64);
            for _ in 0..self.depth {
                let nf = g.wrapping_add(1);
                let ng = f.wrapping_add(2);
                f = nf;
                g = ng;
            }
            f.wrapping_add(self.t.wrapping_add(self.offset))
        } else {
            let d = self.depth as i64;
            self.t
                .wrapping_add(self.offset)
                .wrapping_add(d.wrapping_mul(d + 1) / 2)
        }
    }

    fn gen(rng: &mut SimRng) -> TagRecursionSpec {
        TagRecursionSpec {
            depth: rng.gen_range(8u32..=96),
            mutual: rng.chance(0.4),
            offset: rng.gen_range(-50i64..=50),
            t: rng.gen_range(-100i64..=100),
        }
    }

    fn shrink(&self) -> Vec<TagRecursionSpec> {
        let mut out = Vec::new();
        if self.depth > 1 {
            out.push(TagRecursionSpec {
                depth: self.depth / 2,
                ..self.clone()
            });
            out.push(TagRecursionSpec {
                depth: self.depth - 1,
                ..self.clone()
            });
        }
        if self.mutual {
            out.push(TagRecursionSpec {
                mutual: false,
                ..self.clone()
            });
        }
        if self.offset != 0 {
            out.push(TagRecursionSpec {
                offset: 0,
                ..self.clone()
            });
        }
        if self.t != 0 {
            out.push(TagRecursionSpec {
                t: 0,
                ..self.clone()
            });
        }
        out
    }
}

/// Wide fan-out: `width` parallel calls of a small leaf function over
/// staggered inputs, joined by an unrolled reduction.
#[derive(Debug, Clone, PartialEq)]
pub struct FanoutJoinSpec {
    /// Number of parallel leaf calls.
    pub width: usize,
    /// Leaf multiplier.
    pub mul: i64,
    /// The single program input `t`.
    pub t: i64,
}

impl FanoutJoinSpec {
    /// Renders the Id source.
    pub fn source(&self) -> String {
        let sum = (0..self.width)
            .map(|i| format!("leaf((t + {i}))"))
            .reduce(|acc, term| format!("({acc} + {term})"))
            .expect("width >= 1");
        format!(
            "def leaf(v) = ((v * {}) + 1);\ndef main(t) = {sum};",
            self.mul
        )
    }

    /// The reference answer.
    pub fn expected(&self) -> i64 {
        (0..self.width)
            .map(|i| {
                self.t
                    .wrapping_add(i as i64)
                    .wrapping_mul(self.mul)
                    .wrapping_add(1)
            })
            .fold(0i64, |acc, v| acc.wrapping_add(v))
    }

    fn gen(rng: &mut SimRng) -> FanoutJoinSpec {
        FanoutJoinSpec {
            width: rng.gen_range(4usize..=48),
            mul: rng.gen_range(-7i64..=7),
            t: rng.gen_range(-100i64..=100),
        }
    }

    fn shrink(&self) -> Vec<FanoutJoinSpec> {
        let mut out = Vec::new();
        if self.width > 1 {
            out.push(FanoutJoinSpec {
                width: self.width / 2,
                ..self.clone()
            });
            out.push(FanoutJoinSpec {
                width: self.width - 1,
                ..self.clone()
            });
        }
        if self.mul != 1 {
            out.push(FanoutJoinSpec {
                mul: 1,
                ..self.clone()
            });
        }
        if self.t != 0 {
            out.push(FanoutJoinSpec {
                t: 0,
                ..self.clone()
            });
        }
        out
    }
}

/// One operation of a [`Family::StoreSkew`] sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOp {
    /// Read address (may defer / busy-wait).
    Read(usize),
    /// Write a value to an address (may race / retry).
    Write(usize, i64),
    /// Reclaim freed deferred-list nodes.
    Reclaim,
}

/// A raw store op-sequence with Zipf-hot addresses.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreSkewSpec {
    /// Store size in cells.
    pub size: usize,
    /// The operation sequence.
    pub ops: Vec<StoreOp>,
}

impl StoreSkewSpec {
    fn gen(rng: &mut SimRng) -> StoreSkewSpec {
        let size = rng.gen_range(4usize..=24);
        let zipf = Zipf::new(size, 0.9 + rng.f64() * 1.6);
        let ops = (0..rng.gen_range(20usize..=160))
            .map(|_| {
                let addr = if rng.chance(0.04) {
                    size + rng.gen_range(0usize..4)
                } else {
                    zipf.sample(rng)
                };
                match rng.gen_range(0u32..10) {
                    0..=4 => StoreOp::Read(addr),
                    5..=8 => StoreOp::Write(addr, rng.gen_range(-100i64..=100)),
                    _ => StoreOp::Reclaim,
                }
            })
            .collect();
        StoreSkewSpec { size, ops }
    }

    fn shrink(&self) -> Vec<StoreSkewSpec> {
        let mut out = Vec::new();
        if self.ops.len() > 1 {
            out.push(StoreSkewSpec {
                ops: self.ops[..self.ops.len() / 2].to_vec(),
                ..self.clone()
            });
            out.push(StoreSkewSpec {
                ops: self.ops[1..].to_vec(),
                ..self.clone()
            });
            out.push(StoreSkewSpec {
                ops: self.ops[..self.ops.len() - 1].to_vec(),
                ..self.clone()
            });
        }
        out
    }
}

/// The family-specific payload of a [`Scenario`].
#[derive(Debug, Clone, PartialEq)]
pub enum Spec {
    /// See [`ExprSpec`].
    Expr(ExprSpec),
    /// See [`HotSkewSpec`].
    HotSkew(HotSkewSpec),
    /// See [`DeferChainSpec`].
    DeferChain(DeferChainSpec),
    /// See [`TagRecursionSpec`].
    TagRecursion(TagRecursionSpec),
    /// See [`FanoutJoinSpec`].
    FanoutJoin(FanoutJoinSpec),
    /// 1–4 merged tenants, each an independent expression program.
    MultiTenant(Vec<ExprSpec>),
    /// See [`StoreSkewSpec`].
    StoreSkew(StoreSkewSpec),
}

/// One generated fuzz input: a family, the seed that produced it, and
/// the structured spec (which shrinking mutates away from the seed).
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Generator family.
    pub family: Family,
    /// The seed [`Scenario::generate`] was called with.
    pub seed: u64,
    /// The structured payload.
    pub spec: Spec,
}

/// Mixes the family name into the seed so the same numeric seed yields
/// independent streams per family (FNV-1a over the name).
fn family_seed(family: Family, seed: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in family.name().bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ seed
}

impl Scenario {
    /// Deterministically generates the scenario for `(family, seed)`.
    pub fn generate(family: Family, seed: u64) -> Scenario {
        let mut rng = SimRng::seed(family_seed(family, seed));
        let spec = match family {
            Family::Expr => Spec::Expr(ExprSpec::gen(&mut rng)),
            Family::HotSkew => Spec::HotSkew(HotSkewSpec::gen(&mut rng)),
            Family::DeferChain => Spec::DeferChain(DeferChainSpec::gen(&mut rng)),
            Family::TagRecursion => Spec::TagRecursion(TagRecursionSpec::gen(&mut rng)),
            Family::FanoutJoin => Spec::FanoutJoin(FanoutJoinSpec::gen(&mut rng)),
            Family::MultiTenant => {
                let n = rng.gen_range(2usize..=4);
                Spec::MultiTenant((0..n).map(|_| ExprSpec::gen(&mut rng)).collect())
            }
            Family::StoreSkew => Spec::StoreSkew(StoreSkewSpec::gen(&mut rng)),
        };
        Scenario { family, seed, spec }
    }

    /// The Id source(s) of the scenario: one entry per tenant program,
    /// empty for [`Family::StoreSkew`] (which has no program).
    pub fn sources(&self) -> Vec<String> {
        let mut sources = match &self.spec {
            Spec::Expr(s) => vec![s.source()],
            Spec::HotSkew(s) => vec![s.source()],
            Spec::DeferChain(s) => vec![s.source()],
            Spec::TagRecursion(s) => vec![s.source()],
            Spec::FanoutJoin(s) => vec![s.source()],
            Spec::MultiTenant(ts) => ts.iter().map(ExprSpec::source).collect(),
            Spec::StoreSkew(_) => Vec::new(),
        };
        // The builders grow each source by appending, which leaves up to
        // twice its length in capacity (0.89 MB of text in 1.78 MB over
        // 2 000 `compile-mix` programs); callers that keep thousands of
        // sources, like e2ebench's prepared job list, keep that slack.
        for s in &mut sources {
            s.shrink_to_fit();
        }
        sources
    }

    /// Program inputs, one `Vec` per tenant (aligned with
    /// [`Scenario::sources`]).
    pub fn inputs(&self) -> Vec<Vec<i64>> {
        match &self.spec {
            Spec::Expr(s) => vec![vec![s.x, s.y]],
            Spec::HotSkew(s) => vec![vec![s.t]],
            Spec::DeferChain(s) => vec![vec![s.t]],
            Spec::TagRecursion(s) => vec![vec![s.t]],
            Spec::FanoutJoin(s) => vec![vec![s.t]],
            Spec::MultiTenant(ts) => ts.iter().map(|t| vec![t.x, t.y]).collect(),
            Spec::StoreSkew(_) => Vec::new(),
        }
    }

    /// Reference answers, one per tenant (the value `main` must output).
    pub fn expected(&self) -> Vec<i64> {
        match &self.spec {
            Spec::Expr(s) => vec![s.expected()],
            Spec::HotSkew(s) => vec![s.expected()],
            Spec::DeferChain(s) => vec![s.expected()],
            Spec::TagRecursion(s) => vec![s.expected()],
            Spec::FanoutJoin(s) => vec![s.expected()],
            Spec::MultiTenant(ts) => ts.iter().map(ExprSpec::expected).collect(),
            Spec::StoreSkew(_) => Vec::new(),
        }
    }

    /// Strictly simpler candidate scenarios for delta-debug shrinking.
    pub fn shrink(&self) -> Vec<Scenario> {
        let respec = |spec| Scenario {
            spec,
            ..self.clone()
        };
        match &self.spec {
            Spec::Expr(s) => s
                .shrink()
                .into_iter()
                .map(|s| respec(Spec::Expr(s)))
                .collect(),
            Spec::HotSkew(s) => s
                .shrink()
                .into_iter()
                .map(|s| respec(Spec::HotSkew(s)))
                .collect(),
            Spec::DeferChain(s) => s
                .shrink()
                .into_iter()
                .map(|s| respec(Spec::DeferChain(s)))
                .collect(),
            Spec::TagRecursion(s) => s
                .shrink()
                .into_iter()
                .map(|s| respec(Spec::TagRecursion(s)))
                .collect(),
            Spec::FanoutJoin(s) => s
                .shrink()
                .into_iter()
                .map(|s| respec(Spec::FanoutJoin(s)))
                .collect(),
            Spec::MultiTenant(ts) => {
                let mut out = Vec::new();
                if ts.len() > 1 {
                    for drop in 0..ts.len() {
                        let mut fewer = ts.clone();
                        fewer.remove(drop);
                        out.push(respec(Spec::MultiTenant(fewer)));
                    }
                }
                for (k, t) in ts.iter().enumerate() {
                    for st in t.shrink() {
                        let mut next = ts.clone();
                        next[k] = st;
                        out.push(respec(Spec::MultiTenant(next)));
                    }
                }
                out
            }
            Spec::StoreSkew(s) => s
                .shrink()
                .into_iter()
                .map(|s| respec(Spec::StoreSkew(s)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        for family in Family::ALL {
            let a = Scenario::generate(family, 7);
            let b = Scenario::generate(family, 7);
            assert_eq!(a, b, "{family}: same seed must give same scenario");
            let c = Scenario::generate(family, 8);
            assert_ne!(a.spec, c.spec, "{family}: different seeds should differ");
        }
    }

    #[test]
    fn same_seed_differs_across_families() {
        let e = Scenario::generate(Family::Expr, 3);
        let h = Scenario::generate(Family::HotSkew, 3);
        assert_ne!(format!("{:?}", e.spec), format!("{:?}", h.spec));
    }

    #[test]
    fn every_program_family_compiles() {
        for family in Family::ALL {
            for seed in 0..10 {
                let sc = Scenario::generate(family, seed);
                for src in sc.sources() {
                    ttda_idc::compile(&src).unwrap_or_else(|e| {
                        panic!("{family} seed {seed} failed to compile: {e}\n{src}")
                    });
                }
            }
        }
    }

    #[test]
    fn family_names_round_trip() {
        for family in Family::ALL {
            assert_eq!(Family::parse(family.name()), Some(family));
        }
        assert_eq!(Family::parse("nonsense"), None);
    }

    #[test]
    fn hot_skew_reads_are_skewed_toward_the_head() {
        // Across seeds, the hottest address must be 0 far more often
        // than a uniform draw would allow.
        let mut zero = 0usize;
        let mut total = 0usize;
        for seed in 0..50 {
            if let Spec::HotSkew(s) = Scenario::generate(Family::HotSkew, seed).spec {
                zero += s.reads.iter().filter(|&&r| r == 0).count();
                total += s.reads.len();
            }
        }
        assert!(
            zero * 3 > total,
            "expected >1/3 of skewed reads on the head, got {zero}/{total}"
        );
    }

    #[test]
    fn shrink_candidates_are_simpler() {
        // Sum of |K| constants: K-toward-zero shrinks keep tree size
        // constant, so the weight must see constant magnitude too.
        fn const_mass(e: &XExpr) -> usize {
            match e {
                XExpr::X | XExpr::Y | XExpr::T => 0,
                XExpr::K(k) => k.unsigned_abs() as usize,
                XExpr::Add(a, b) | XExpr::Sub(a, b) | XExpr::Mul(a, b) | XExpr::Let(a, b) => {
                    const_mass(a) + const_mass(b)
                }
                XExpr::If(c, a, b) => const_mass(c) + const_mass(a) + const_mass(b),
            }
        }
        fn expr_weight(s: &ExprSpec) -> usize {
            xexpr::size(&s.expr) * 100_000
                + const_mass(&s.expr) * 10
                + s.x.unsigned_abs() as usize
                + s.y.unsigned_abs() as usize
        }
        fn weight(sc: &Scenario) -> usize {
            match &sc.spec {
                Spec::Expr(s) => expr_weight(s),
                Spec::HotSkew(s) => {
                    s.reads.len() * 1000
                        + s.chain.len() * 100
                        + s.reads.iter().sum::<usize>()
                        + s.t.unsigned_abs() as usize
                }
                Spec::DeferChain(s) => {
                    s.n * 1000 + s.chain.len() * 100 + s.t.unsigned_abs() as usize
                }
                Spec::TagRecursion(s) => {
                    s.depth as usize * 1000
                        + usize::from(s.mutual) * 100
                        + s.offset.unsigned_abs() as usize
                        + s.t.unsigned_abs() as usize
                }
                Spec::FanoutJoin(s) => {
                    s.width * 1000
                        + (s.mul - 1).unsigned_abs() as usize
                        + s.t.unsigned_abs() as usize
                }
                Spec::MultiTenant(ts) => {
                    ts.len() * 100_000_000 + ts.iter().map(expr_weight).sum::<usize>()
                }
                Spec::StoreSkew(s) => s.ops.len(),
            }
        }
        for family in Family::ALL {
            for seed in 0..10 {
                let sc = Scenario::generate(family, seed);
                for c in sc.shrink() {
                    assert!(
                        weight(&c) < weight(&sc),
                        "{family} seed {seed}: shrink candidate not simpler\n  from {:?}\n  to {:?}",
                        sc.spec,
                        c.spec
                    );
                }
            }
        }
    }

    #[test]
    fn reference_answers_are_plausible() {
        // Spot-check the closed-form references on tiny hand specs.
        let d = DeferChainSpec {
            n: 3,
            chain: vec![5],
            t: 10,
        };
        assert_eq!(d.expected(), 10 + 5 + 2);
        let f = FanoutJoinSpec {
            width: 3,
            mul: 2,
            t: 1,
        };
        // (1*2+1) + (2*2+1) + (3*2+1) = 3 + 5 + 7
        assert_eq!(f.expected(), 15);
        let r = TagRecursionSpec {
            depth: 4,
            mutual: false,
            offset: 1,
            t: 2,
        };
        assert_eq!(r.expected(), 2 + 1 + 10);
        let m = TagRecursionSpec {
            depth: 2,
            mutual: true,
            offset: 0,
            t: 0,
        };
        // f1 = g0+1 = 2, g1 = f0+2 = 2; f2 = g1+1 = 3.
        assert_eq!(m.expected(), 3);
        let h = HotSkewSpec {
            size: 3,
            reads: vec![0, 2, 0],
            chain: vec![4, 4],
            t: 1,
        };
        assert_eq!(h.expected(), 9 + 3 + 9);
    }
}
