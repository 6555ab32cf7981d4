//! The specialized waiting–matching store (§2.2.2).
//!
//! The paper's answer to Issue 2 is an *associative* waiting–matching
//! section sitting on every token's path, which only works if a match
//! probe is nearly free. The generic `HashMap<ActivityName,
//! Vec<Option<Value>>>` we started with pays SipHash over a four-field
//! struct key plus one heap allocation per parked activity; this module
//! replaces it with a purpose-built open-addressing table:
//!
//! - the `(u, c, s, i)` activity name packs into two `u64` words
//!   ([`PackedName`]) and is hashed by two fibonacci multiplies and a
//!   mix13-style finalizer — no external hasher crate;
//! - operands for arity ≤ 3 (every opcode except wide `Apply`) live
//!   *inline* in the entry, so parking a token writes a slot in place —
//!   no per-activity `Vec`;
//! - matched entries return their arena slot to a free list, so
//!   steady-state matching performs **zero** heap allocation.
//!
//! The store is observationally identical to the `HashMap` version:
//! [`len`](MatchingStore::len) (the traced occupancy and
//! `peak_matching` source) counts exactly the activities with at least
//! one parked operand, and a completed match yields operands in port
//! order. `tests/properties.rs` drives it against a `HashMap` reference
//! model to pin that equivalence down.
//!
//! The hash here is deliberately *not* the placement hash in the
//! (private) `place` module: workers are chosen by mix13 over a lossy
//! packing of the name, while slots use fibonacci folds of the full
//! 128-bit name.
//! If the two agreed, every key routed to one shard would also land in
//! one probe chain of that shard's table, degenerating to a linked
//! list. DESIGN.md §8 spells out the argument.

use crate::tag::{ActivityName, Port};
use crate::value::Value;

/// Operand slots stored inline per entry; `OpCode::arity()` exceeds this
/// only for `Apply` with more than three arguments, which spills to a
/// retained `Vec`.
const INLINE: usize = 3;

/// Empty bucket sentinel in the index table. Unambiguous: a live word
/// carries an arena index in its low half, and the arena can never grow
/// to `u32::MAX` entries.
const EMPTY: u64 = u64::MAX;

/// A live index-table word: the low 32 bits of the slot hash over the
/// arena index. Probes compare the cached hash fragment before touching
/// the (much larger) entry arena, and deletion/growth re-derive a
/// bucket's ideal position from the fragment alone — the table is the
/// only memory the probe machinery walks.
#[inline]
fn word(hash: u64, idx: u32) -> u64 {
    (hash as u32 as u64) << 32 | idx as u64
}

/// An activity name packed into two machine words: `hi = u ‖ c`,
/// `lo = s ‖ i`. Equality on the packed form is exactly equality on the
/// four fields, so the store never needs to keep the unpacked struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedName {
    hi: u64,
    lo: u64,
}

impl PackedName {
    /// Packs the four 32-bit fields, losslessly.
    #[inline]
    pub fn pack(tag: ActivityName) -> Self {
        PackedName {
            hi: (tag.u.0 as u64) << 32 | tag.c.0 as u64,
            lo: (tag.s.0 as u64) << 32 | tag.i.0 as u64,
        }
    }

    /// Recovers the activity name (the packing is a bijection).
    #[inline]
    pub fn unpack(self) -> ActivityName {
        ActivityName {
            u: crate::tag::Ctx((self.hi >> 32) as u32),
            c: crate::graph::CodeBlockId(self.hi as u32),
            s: crate::graph::InstrId((self.lo >> 32) as u32),
            i: crate::tag::Iter(self.lo as u32),
        }
    }
}

/// The slot hash: fibonacci multiplies fold the two words, a mix13-style
/// finalizer avalanches the result. Structurally unrelated to
/// `place::place` (mix13 over a lossy packing), so the set of keys
/// owned by one worker still spreads over that worker's buckets.
#[inline]
fn slot_hash(key: PackedName) -> u64 {
    let mut x = key.hi.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(32)
        ^ key.lo.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    x = (x ^ (x >> 30)).wrapping_mul(0x2545_f491_4f6c_dd1d);
    x ^ (x >> 28)
}

/// A parked activity: which operand ports have arrived, and their values.
#[derive(Debug)]
struct Entry {
    key: PackedName,
    /// Operand count of the target instruction (`OpCode::arity()`).
    arity: u8,
    /// For inline entries: a bitmask of filled ports. For spilled
    /// entries: the count of filled ports.
    filled: u8,
    /// Inline operand slots (valid for ports `< arity` when the mask bit
    /// is set). `Value` is `Copy`, so unfilled slots just hold `Unit`.
    slots: [Value; INLINE],
    /// Overflow slots for `arity > INLINE` (wide `Apply`). The `Vec`'s
    /// capacity is retained across free-list recycling.
    spill: Vec<Option<Value>>,
}

/// A complete operand set, inline up to `INLINE` (3) values — the
/// common case never touches the heap. Dereferences to `&[Value]` for
/// the executor.
#[derive(Debug, Clone, PartialEq)]
pub enum Operands {
    /// At most `INLINE` operands, stored in place.
    Inline {
        /// Number of live values in `vals`.
        len: u8,
        /// The operand values, port order, padded with `Unit`.
        vals: [Value; INLINE],
    },
    /// More than `INLINE` operands (wide `Apply`).
    Heap(Vec<Value>),
}

impl Operands {
    /// A single operand, allocation-free (the `nt ≤ 1` bypass path).
    #[inline]
    pub fn one(v: Value) -> Self {
        Operands::Inline {
            len: 1,
            vals: [v, Value::Unit, Value::Unit],
        }
    }
}

impl std::ops::Deref for Operands {
    type Target = [Value];
    #[inline]
    fn deref(&self) -> &[Value] {
        match self {
            Operands::Inline { len, vals } => &vals[..*len as usize],
            Operands::Heap(v) => v,
        }
    }
}

/// Error from [`MatchingStore::absorb`]: the token's port index is not a
/// valid operand slot of the target instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortOutOfRange;

/// What happened to an absorbed token.
#[derive(Debug, PartialEq)]
pub enum Absorbed {
    /// Parked; the activity still waits for at least one operand.
    Parked,
    /// The final operand arrived: the complete set, in port order. The
    /// entry's slot has been recycled.
    Enabled(Operands),
}

/// The open-addressing waiting–matching store. See the module docs.
///
/// Layout: a power-of-two index table of `hash fragment ‖ arena slot`
/// words (linear probing, backward-shift deletion — no tombstones), an
/// entry arena, and a free list of recycled arena slots. Load is kept
/// below 7/8.
#[derive(Debug)]
pub struct MatchingStore {
    /// Bucket → `hash fragment ‖ arena index` (see [`word`]), or
    /// [`EMPTY`].
    table: Vec<u64>,
    /// Power-of-two bucket-index mask (`table.len() - 1`).
    mask: usize,
    /// Slot arena; freed slots are reused via `free`.
    entries: Vec<Entry>,
    /// Recycled arena indices.
    free: Vec<u32>,
    /// Live (parked) activity count — the occupancy the traces report.
    len: usize,
    /// Highest `len` ever reached (since the last
    /// [`MatchingStore::reset_high_water`]).
    high_water: usize,
}

impl Default for MatchingStore {
    fn default() -> Self {
        MatchingStore::new()
    }
}

impl MatchingStore {
    /// Initial bucket count (must be a power of two).
    const INITIAL_BUCKETS: usize = 32;

    /// An empty store.
    pub fn new() -> Self {
        MatchingStore {
            table: vec![EMPTY; Self::INITIAL_BUCKETS],
            mask: Self::INITIAL_BUCKETS - 1,
            entries: Vec::new(),
            free: Vec::new(),
            len: 0,
            high_water: 0,
        }
    }

    /// Number of parked activities (identical to the old map's `len()`;
    /// this is the number every occupancy trace and `peak_matching`
    /// sample observes).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no activity is waiting.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Highest occupancy the store has reached since construction (or
    /// the last [`MatchingStore::reset_high_water`]) — an O(1) counter
    /// maintained at the single insertion site, so backpressure policies
    /// (the `ttda-workloads` service scheduler) can poll it instead of
    /// scanning. Under the parallel wave backend each shard keeps its
    /// own store; the coordinator's delta replay aggregates the shards
    /// into the exact sequential occupancy, which is what
    /// `EmuResult::peak_matching` reports.
    #[inline]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Restarts high-water tracking from the current occupancy, so a
    /// long-lived store can be observed per burst.
    #[inline]
    pub fn reset_high_water(&mut self) {
        self.high_water = self.len;
    }

    /// Visits every parked activity name. Replaces the `HashMap::keys`
    /// scans the diagnostics (stranded-token report, k-bounded
    /// oldest-iteration probe) used to run; iteration order is
    /// unspecified, as it was for the map.
    pub fn for_each_key(&self, mut f: impl FnMut(ActivityName)) {
        for &w in &self.table {
            if w != EMPTY {
                f(self.entries[w as u32 as usize].key.unpack());
            }
        }
    }

    /// Absorbs one token for `tag`, whose target instruction has
    /// `arity` operand slots and an optional compile-time `literal`
    /// operand. Mirrors the original `HashMap` transition function
    /// exactly: a fresh activity parks with the literal (if any)
    /// pre-filled; a token for an already-filled port overwrites the
    /// value; when all `arity` ports are filled the operands are
    /// returned in port order and the entry is recycled.
    #[inline]
    pub fn absorb(
        &mut self,
        tag: ActivityName,
        arity: u8,
        literal: Option<(Port, Value)>,
        port: Port,
        value: Value,
    ) -> Result<Absorbed, PortOutOfRange> {
        if port.0 >= arity {
            // The reference implementation reported the bad port without
            // inserting a fresh entry only if the activity was already
            // parked; since the run aborts on this error and the
            // occupancy is never observed again, we simply don't park.
            return Err(PortOutOfRange);
        }
        let key = PackedName::pack(tag);
        let hash = slot_hash(key);

        // Probe for the key. The fragment comparison keeps mismatching
        // probes (and the removal shift below) inside the index table.
        let frag = hash as u32;
        let mut pos = hash as usize & self.mask;
        loop {
            let w = self.table[pos];
            if w == EMPTY {
                break;
            }
            if (w >> 32) as u32 == frag {
                let e = &mut self.entries[w as u32 as usize];
                if e.key == key {
                    // Existing entry: fill the port.
                    Self::fill(e, port, value);
                    if Self::complete(e) {
                        let ops = Self::take_operands(e);
                        self.remove_at(pos);
                        return Ok(Absorbed::Enabled(ops));
                    }
                    return Ok(Absorbed::Parked);
                }
            }
            pos = (pos + 1) & self.mask;
        }

        // Fresh activity. Build the entry as the map's `or_insert_with`
        // closure did: literal pre-filled, then this token's port.
        let idx = self.alloc_entry(key, arity, literal);
        let e = &mut self.entries[idx as usize];
        Self::fill(e, port, value);
        if Self::complete(e) {
            // Immediate completion (e.g. arity 2 with a literal): the
            // map inserted then removed, netting zero occupancy; skip
            // the table entirely.
            let ops = Self::take_operands(e);
            self.free.push(idx);
            return Ok(Absorbed::Enabled(ops));
        }
        self.table[pos] = word(hash, idx);
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
        if self.len * 8 >= self.table.len() * 7 {
            self.grow();
        }
        Ok(Absorbed::Parked)
    }

    /// Fills `port` of `e` (idempotent on the fill count, like writing
    /// `Some` over `Some` in the reference model).
    #[inline]
    fn fill(e: &mut Entry, port: Port, value: Value) {
        let p = port.0 as usize;
        if (e.arity as usize) <= INLINE {
            e.slots[p] = value;
            e.filled |= 1 << p;
        } else {
            if e.spill[p].is_none() {
                e.filled += 1;
            }
            e.spill[p] = Some(value);
        }
    }

    /// Whether all `arity` ports of `e` are filled.
    #[inline]
    fn complete(e: &Entry) -> bool {
        if (e.arity as usize) <= INLINE {
            e.filled == (1u8 << e.arity) - 1
        } else {
            e.filled == e.arity
        }
    }

    /// Extracts the operand set of a complete entry, clearing its spill
    /// storage (capacity retained) for recycling.
    fn take_operands(e: &mut Entry) -> Operands {
        if (e.arity as usize) <= INLINE {
            Operands::Inline {
                len: e.arity,
                vals: e.slots,
            }
        } else {
            let vals = e
                .spill
                .iter()
                .map(|o| o.expect("all ports filled"))
                .collect();
            e.spill.clear();
            Operands::Heap(vals)
        }
    }

    /// Takes a slot from the free list (retaining its spill capacity) or
    /// grows the arena, and initializes it as the reference model's
    /// `or_insert_with` closure would.
    fn alloc_entry(&mut self, key: PackedName, arity: u8, literal: Option<(Port, Value)>) -> u32 {
        let idx = match self.free.pop() {
            Some(idx) => {
                let e = &mut self.entries[idx as usize];
                e.key = key;
                e.arity = arity;
                e.filled = 0;
                idx
            }
            None => {
                let idx = self.entries.len() as u32;
                self.entries.push(Entry {
                    key,
                    arity,
                    filled: 0,
                    slots: [Value::Unit; INLINE],
                    spill: Vec::new(),
                });
                idx
            }
        };
        if (arity as usize) > INLINE {
            // Indexing panics on a literal port ≥ arity, as the
            // reference model's closure did; the builder validates this.
            self.entries[idx as usize]
                .spill
                .resize(arity as usize, None);
        }
        if let Some((p, lv)) = literal {
            Self::fill(&mut self.entries[idx as usize], p, lv);
        }
        idx
    }

    /// Unlinks the bucket at `pos`, recycling its arena slot, and
    /// backward-shifts the following probe chain so lookups never need
    /// tombstones.
    fn remove_at(&mut self, pos: usize) {
        self.free.push(self.table[pos] as u32);
        self.len -= 1;
        let mut hole = pos;
        self.table[hole] = EMPTY;
        let mut cur = (pos + 1) & self.mask;
        while self.table[cur] != EMPTY {
            let ideal = (self.table[cur] >> 32) as usize & self.mask;
            // An entry may slide back into the hole only if its ideal
            // bucket is at or before the hole in probe order.
            if cur.wrapping_sub(ideal) & self.mask >= cur.wrapping_sub(hole) & self.mask {
                self.table[hole] = self.table[cur];
                self.table[cur] = EMPTY;
                hole = cur;
            }
            cur = (cur + 1) & self.mask;
        }
    }

    /// Doubles the bucket table and re-files every live word by its
    /// cached hash fragment.
    fn grow(&mut self) {
        let new_cap = self.table.len() * 2;
        let old = std::mem::replace(&mut self.table, vec![EMPTY; new_cap]);
        self.mask = new_cap - 1;
        for w in old {
            if w == EMPTY {
                continue;
            }
            let mut pos = (w >> 32) as usize & self.mask;
            while self.table[pos] != EMPTY {
                pos = (pos + 1) & self.mask;
            }
            self.table[pos] = w;
        }
    }
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

    #[test]
    fn pack_roundtrip() {
        let t = tag(7, u32::MAX, 3, 12345);
        assert_eq!(PackedName::pack(t).unpack(), t);
    }

    #[test]
    fn two_operand_match() {
        let mut m = MatchingStore::new();
        let t = tag(1, 0, 4, 1);
        assert_eq!(
            m.absorb(t, 2, None, Port(0), Value::Int(3)),
            Ok(Absorbed::Parked)
        );
        assert_eq!(m.len(), 1);
        let r = m.absorb(t, 2, None, Port(1), Value::Int(9)).unwrap();
        match r {
            Absorbed::Enabled(ops) => assert_eq!(&*ops, &[Value::Int(3), Value::Int(9)]),
            other => panic!("expected match, got {other:?}"),
        }
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn literal_prefill_and_immediate_completion() {
        let mut m = MatchingStore::new();
        let t = tag(1, 0, 4, 1);
        // arity 2 with a literal at port 1: the single token completes
        // the set without the store's occupancy ever rising.
        let r = m
            .absorb(
                t,
                2,
                Some((Port(1), Value::Int(40))),
                Port(0),
                Value::Int(2),
            )
            .unwrap();
        match r {
            Absorbed::Enabled(ops) => assert_eq!(&*ops, &[Value::Int(2), Value::Int(40)]),
            other => panic!("expected match, got {other:?}"),
        }
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn port_overwrite_is_idempotent_on_occupancy() {
        let mut m = MatchingStore::new();
        let t = tag(1, 0, 4, 1);
        assert_eq!(
            m.absorb(t, 3, None, Port(0), Value::Int(1)),
            Ok(Absorbed::Parked)
        );
        assert_eq!(
            m.absorb(t, 3, None, Port(0), Value::Int(2)),
            Ok(Absorbed::Parked)
        );
        assert_eq!(m.len(), 1);
        assert_eq!(
            m.absorb(t, 3, None, Port(1), Value::Int(3)),
            Ok(Absorbed::Parked)
        );
        let r = m.absorb(t, 3, None, Port(2), Value::Int(4)).unwrap();
        match r {
            Absorbed::Enabled(ops) => {
                assert_eq!(&*ops, &[Value::Int(2), Value::Int(3), Value::Int(4)]);
            }
            other => panic!("expected match, got {other:?}"),
        }
    }

    #[test]
    fn bad_port_is_rejected_without_parking() {
        let mut m = MatchingStore::new();
        let t = tag(1, 0, 4, 1);
        assert_eq!(
            m.absorb(t, 2, None, Port(2), Value::Int(1)),
            Err(PortOutOfRange)
        );
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn spill_arity_beyond_inline() {
        let mut m = MatchingStore::new();
        let t = tag(9, 2, 7, 1);
        for p in 0..5u8 {
            let r = m.absorb(t, 6, None, Port(p), Value::Int(p as i64)).unwrap();
            assert_eq!(r, Absorbed::Parked);
        }
        assert_eq!(m.len(), 1);
        let r = m.absorb(t, 6, None, Port(5), Value::Int(5)).unwrap();
        match r {
            Absorbed::Enabled(ops) => {
                let want: Vec<Value> = (0..6).map(Value::Int).collect();
                assert_eq!(&*ops, &want[..]);
            }
            other => panic!("expected match, got {other:?}"),
        }
        assert_eq!(m.len(), 0);
        // The spill Vec is recycled with its capacity on the free list.
        assert_eq!(
            m.absorb(t, 6, None, Port(0), Value::Int(1)),
            Ok(Absorbed::Parked)
        );
    }

    #[test]
    fn growth_and_backward_shift_keep_all_keys_findable() {
        let mut m = MatchingStore::new();
        let n = 500u32;
        for k in 0..n {
            let r = m
                .absorb(tag(k, 1, 2, 1), 2, None, Port(0), Value::Int(k as i64))
                .unwrap();
            assert_eq!(r, Absorbed::Parked, "key {k}");
        }
        assert_eq!(m.len(), n as usize);
        let mut seen = 0usize;
        m.for_each_key(|t| {
            assert_eq!((t.c.0, t.s.0, t.i.0), (1, 2, 1));
            seen += 1;
        });
        assert_eq!(seen, n as usize);
        // Remove every third key (forces backward shifts), then verify
        // the rest still match correctly.
        for k in (0..n).step_by(3) {
            let r = m
                .absorb(tag(k, 1, 2, 1), 2, None, Port(1), Value::Int(-1))
                .unwrap();
            assert!(matches!(r, Absorbed::Enabled(_)), "key {k}");
        }
        for k in 0..n {
            if k % 3 == 0 {
                continue;
            }
            match m
                .absorb(tag(k, 1, 2, 1), 2, None, Port(1), Value::Int(-1))
                .unwrap()
            {
                Absorbed::Enabled(ops) => {
                    assert_eq!(&*ops, &[Value::Int(k as i64), Value::Int(-1)])
                }
                other => panic!("key {k}: expected match, got {other:?}"),
            }
        }
        assert_eq!(m.len(), 0);
    }

    /// The O(1) `high_water` counter must agree with a `HashMap`
    /// reference model of the store (park on first token, recycle on
    /// completion) whose running-size maximum is recomputed from scratch
    /// after every absorb, across a randomized stream of arities,
    /// literals, repeats and completions.
    #[test]
    fn high_water_matches_reference_model() {
        use std::collections::{HashMap, HashSet};
        let mut rng = ttda_sim::SimRng::seed(0x5eed_5e44);
        let mut m = MatchingStore::new();
        let mut model: HashMap<ActivityName, (u8, HashSet<u8>)> = HashMap::new();
        let mut model_high = 0usize;
        for _ in 0..5000 {
            let t = tag(rng.gen_range(0u32..96), 1, rng.gen_range(0u32..4), 1);
            // Arity and literal are properties of the target instruction,
            // so derive them from the tag, never at random per token.
            let arity = 1 + ((t.u.0 + t.s.0) % 5) as u8;
            let literal = if arity > 1 && t.s.0.is_multiple_of(2) {
                Some((Port(arity - 1), Value::Int(-7)))
            } else {
                None
            };
            let port = if rng.chance(1.0 / 16.0) {
                Port(arity) // deliberately out of range
            } else {
                Port(rng.gen_range(0u8..arity))
            };
            let got = m.absorb(t, arity, literal, port, Value::Int(1));
            if port.0 >= arity {
                // Rejected before parking: the model is untouched.
                assert_eq!(got, Err(PortOutOfRange));
            } else {
                let parked = model.entry(t).or_insert_with(|| {
                    let mut f = HashSet::new();
                    if let Some((p, _)) = literal {
                        f.insert(p.0);
                    }
                    (arity, f)
                });
                parked.1.insert(port.0);
                if parked.1.len() == parked.0 as usize {
                    model.remove(&t);
                    assert!(matches!(got, Ok(Absorbed::Enabled(_))));
                } else {
                    assert_eq!(got, Ok(Absorbed::Parked));
                }
            }
            model_high = model_high.max(model.len());
            assert_eq!(m.len(), model.len());
            assert_eq!(m.high_water(), model_high);
        }
        assert!(m.high_water() > 0, "stream never parked anything");
        // Reset restarts tracking from the *current* occupancy.
        m.reset_high_water();
        assert_eq!(m.high_water(), m.len());
        assert!(m.high_water() < model_high || m.len() == model_high);
    }

    /// Keys confined to a single worker must still spread across this
    /// store's buckets under every placement policy: the slot hash may
    /// not be correlated with `place`, or per-worker tables degenerate
    /// into one probe chain.
    #[test]
    fn shard_resident_keys_spread_over_buckets() {
        use crate::place::{place, MappingPolicy};
        for policy in [
            MappingPolicy::Spread,
            MappingPolicy::ByContext,
            MappingPolicy::ByIteration,
        ] {
            let mut buckets = std::collections::HashSet::new();
            let mut in_shard = 0usize;
            for u in 0..4000u32 {
                let t = tag(u, 1, 2, 1);
                if place(policy, t, 4) != 0 {
                    continue;
                }
                in_shard += 1;
                let h = slot_hash(PackedName::pack(t));
                buckets.insert(h as usize & (1024 - 1));
            }
            assert!(
                in_shard > 500,
                "{policy:?}: worker 0 should own ~1/4 of keys, got {in_shard}"
            );
            // With ~1000 keys over 1024 buckets, a degenerate correlation
            // would collapse to a handful of buckets; a sound hash fills
            // most of the table (E[distinct] ≈ 1024·(1−e^{−1}) ≈ 647).
            assert!(
                buckets.len() > 400,
                "{policy:?}: worker-0 keys collapsed onto {} buckets",
                buckets.len()
            );
        }
    }
}
