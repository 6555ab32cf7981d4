//! Placement: the one function that maps an activity name to a processing
//! element (in the [`crate::TimedMachine`]) or a host worker (in the
//! relaxed backend).
//!
//! "The activity name plus some mapping information uniquely define the
//! runtime tag and processing element number." Every engine that spreads
//! activities over units calls [`place`]; the policy is the only mapping
//! information.

use crate::tag::ActivityName;

/// How activities are assigned to processing elements or workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingPolicy {
    /// Hash `(u, i)`: one iteration of one activation stays on a PE,
    /// different iterations spread. The timed machine's default — it
    /// exposes loop parallelism while keeping intra-iteration traffic
    /// local.
    ByIteration,
    /// Hash `u` only: a whole activation stays on one PE (procedure-level
    /// parallelism only). The relaxed backend places by context, so only
    /// call/return and loop entry/exit cross workers.
    ByContext,
    /// Hash the full `(u, c, s, i)`: maximal spreading, maximal traffic.
    Spread,
}

/// Stafford's mix13 finalizer. Deterministic across runs and platforms.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// The unit in `0..n` that owns `tag` under `policy`.
///
/// Deliberately *not* the hash [`crate::matching`] uses for bucket
/// placement: this one mixes a lossy packing of the name, the store folds
/// the full 128-bit name through fibonacci multiplies. If they agreed,
/// all keys owned by one worker would collide into one probe chain of
/// that worker's table (`matching::tests::shard_resident_keys_spread_over_buckets`
/// guards the independence).
pub(crate) fn place(policy: MappingPolicy, tag: ActivityName, n: usize) -> usize {
    let h = match policy {
        MappingPolicy::ByIteration => mix((tag.u.0 as u64) << 32 | tag.i.0 as u64),
        MappingPolicy::ByContext => mix(tag.u.0 as u64),
        MappingPolicy::Spread => mix((tag.u.0 as u64) << 48
            | (tag.c.0 as u64) << 36
            | (tag.s.0 as u64) << 16
            | tag.i.0 as u64),
    };
    (h % n as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{CodeBlockId, InstrId};
    use crate::tag::{Ctx, Iter};

    fn tag(u: u32, c: u32, s: u32, i: u32) -> ActivityName {
        ActivityName {
            u: Ctx(u),
            c: CodeBlockId(c),
            s: InstrId(s),
            i: Iter(i),
        }
    }

    fn table() -> Vec<ActivityName> {
        let mut tags = Vec::new();
        for u in [0, 1, 2, 7, 63, 64, 1000, 65_535, u32::MAX] {
            for (c, s, i) in [(0, 0, 0), (1, 2, 1), (3, 17, 9), (4095, 1 << 20, 65_535)] {
                tags.push(tag(u, c, s, i));
            }
        }
        tags
    }

    /// `Spread` is pinned bit-for-bit to one packing of the full name,
    /// so timed results and traces under it stay put.
    #[test]
    fn spread_is_the_full_name_shard_hash() {
        fn reference(t: ActivityName, workers: usize) -> usize {
            let packed =
                (t.u.0 as u64) << 48 | (t.c.0 as u64) << 36 | (t.s.0 as u64) << 16 | t.i.0 as u64;
            let mut x = packed;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
            x ^= x >> 31;
            (x % workers as u64) as usize
        }
        for t in table() {
            for n in 1..=8 {
                assert_eq!(
                    place(MappingPolicy::Spread, t, n),
                    reference(t, n),
                    "{t:?} n={n}"
                );
            }
        }
    }

    /// The timed machine's default mapping, pinned: a change here moves
    /// every `TimedMachine` makespan in the experiment tables.
    #[test]
    fn by_iteration_values_are_pinned() {
        let got: Vec<usize> = [
            tag(0, 0, 0, 0),
            tag(0, 0, 0, 1),
            tag(1, 0, 0, 1),
            tag(1, 5, 9, 1),
            tag(7, 0, 0, 3),
            tag(1000, 2, 3, 42),
        ]
        .iter()
        .map(|&t| place(MappingPolicy::ByIteration, t, 16))
        .collect();
        assert_eq!(got, PINNED_BY_ITERATION);
    }

    const PINNED_BY_ITERATION: [usize; 6] = [0, 5, 1, 1, 0, 14];

    /// `ByContext` ignores everything but the context; `ByIteration`
    /// ignores the statement.
    #[test]
    fn coarser_policies_ignore_the_finer_fields() {
        for n in [2usize, 4, 16] {
            for u in 0..64 {
                let a = place(MappingPolicy::ByContext, tag(u, 1, 2, 3), n);
                assert_eq!(a, place(MappingPolicy::ByContext, tag(u, 9, 40, 7), n));
                let b = place(MappingPolicy::ByIteration, tag(u, 1, 2, 3), n);
                assert_eq!(b, place(MappingPolicy::ByIteration, tag(u, 9, 40, 3), n));
            }
        }
    }
}
