//! Property tests for the simulation kernel, driven by the in-tree
//! `check` harness.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ttda_sim::check;
use ttda_sim::stats::{Histogram, Series};
use ttda_sim::{Cycle, Engine, EventQueue, SimRng};

#[test]
fn histogram_totals_match_inputs() {
    check::forall("histogram totals match inputs", |rng| {
        let bins = rng.gen_range(1usize..64);
        let width = rng.gen_range(1u64..100);
        let len = rng.gen_range(0usize..200);
        let samples: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..10_000)).collect();

        let mut h = Histogram::new(bins, width);
        for &s in &samples {
            h.record(s);
        }
        assert_eq!(h.count(), samples.len() as u64);
        assert_eq!(h.bins().iter().sum::<u64>(), samples.len() as u64);
        if samples.is_empty() {
            assert!(h.mean().is_none());
        } else {
            let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
            assert!((h.mean().unwrap() - mean).abs() < 1e-6);
            assert_eq!(h.min(), samples.iter().min().copied());
            assert_eq!(h.max(), samples.iter().max().copied());
        }
    });
}

#[test]
fn histogram_percentiles_monotone() {
    check::forall("histogram percentiles monotone", |rng| {
        let len = rng.gen_range(1usize..100);
        let mut h = Histogram::new(32, 8);
        for _ in 0..len {
            h.record(rng.gen_range(0u64..1000));
        }
        let mut last = 0;
        for p in [1.0, 25.0, 50.0, 75.0, 99.0] {
            let v = h.percentile(p).unwrap();
            assert!(v >= last, "p{p} = {v} < previous {last}");
            last = v;
        }
    });
}

#[test]
fn series_thin_preserves_endpoints_order() {
    check::forall("series thin preserves order", |rng| {
        let len = rng.gen_range(2usize..300);
        let n = rng.gen_range(1usize..50);
        let mut s = Series::new();
        for i in 0..len {
            s.record(Cycle(i as u64), rng.f64() * 100.0);
        }
        let thinned = s.thin(n);
        assert!(thinned.len() <= n.max(len.min(n)));
        // Times stay strictly increasing.
        for w in thinned.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    });
}

#[test]
fn engine_time_is_monotone() {
    check::forall("engine time is monotone", |rng| {
        let len = rng.gen_range(1usize..100);
        let delays: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..50)).collect();
        let mut e: Engine<usize> = Engine::new();
        for (i, &d) in delays.iter().enumerate() {
            e.schedule(Cycle(d), i);
        }
        let mut last = Cycle::ZERO;
        let mut seen = 0;
        e.run(|now, _, _| {
            assert!(now >= last);
            last = now;
            seen += 1;
        });
        assert_eq!(seen, delays.len());
        assert_eq!(e.dispatched(), delays.len() as u64);
    });
}

#[test]
fn event_queue_matches_a_reference_heap() {
    // The queue's ring covers 1024 cycles. Delays are 0, inside the
    // window, across its edge, or ten and more windows out, so pushes
    // overflow, migrate, wrap the ring and jump over it when it is empty.
    // One push in four reuses a pending time, so equal-time ties fall on
    // both sides of the window edge.
    check::forall("event queue matches a reference heap", |rng| {
        let mut q = EventQueue::new();
        let mut model: BinaryHeap<Reverse<(Cycle, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut last_pop = Cycle::ZERO;
        let mut times: Vec<Cycle> = Vec::new();
        for _ in 0..rng.gen_range(1usize..800) {
            match rng.gen_range(0u32..100) {
                0..=54 => {
                    let at = match rng.gen_range(0u32..4) {
                        0 if !times.is_empty() => {
                            let i = rng.gen_range(0..times.len());
                            times[i].max(last_pop)
                        }
                        0 => last_pop,
                        1 => last_pop + Cycle(rng.gen_range(0u64..1024)),
                        2 => last_pop + Cycle(rng.gen_range(512u64..1536)),
                        _ => last_pop + Cycle(rng.gen_range(10_240u64..40_960)),
                    };
                    q.push(at, seq);
                    model.push(Reverse((at, seq)));
                    times.push(at);
                    seq += 1;
                }
                55..=84 => {
                    let want = model.pop().map(|Reverse(e)| e);
                    assert_eq!(q.pop(), want);
                    if let Some((t, _)) = want {
                        last_pop = t;
                    }
                }
                85..=98 => {
                    let now = last_pop + Cycle(rng.gen_range(0u64..2048));
                    let want = match model.peek() {
                        Some(&Reverse((t, _))) if t <= now => model.pop().map(|Reverse(e)| e),
                        _ => None,
                    };
                    assert_eq!(q.pop_due(now), want);
                    if let Some((t, _)) = want {
                        last_pop = t;
                    }
                }
                _ => {
                    // A cleared queue starts again from time zero.
                    q.clear();
                    model.clear();
                    last_pop = Cycle::ZERO;
                    times.clear();
                }
            }
            assert_eq!(q.peek_time(), model.peek().map(|&Reverse((t, _))| t));
            assert_eq!(q.len(), model.len());
            assert_eq!(q.is_empty(), model.is_empty());
        }
        while let Some(Reverse(want)) = model.pop() {
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!(q.pop(), None);
    });
}

#[test]
fn forked_rng_streams_are_reproducible() {
    check::forall("forked rng streams reproducible", |rng| {
        let seed = rng.next_u64();
        let stream = rng.gen_range(0u64..100);
        let mut a = SimRng::seed(seed);
        let mut b = SimRng::seed(seed);
        let mut fa = a.fork(stream);
        let mut fb = b.fork(stream);
        for _ in 0..20 {
            assert_eq!(fa.gen_range(0u64..1_000_000), fb.gen_range(0u64..1_000_000));
        }
    });
}
