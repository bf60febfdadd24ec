//! Per-request page-access planning.
//!
//! Given a benchmark's [`InitAccess`] model and the page counts of its
//! segments, [`RequestAccess::plan`] decides which pages one request
//! touches. The plans reproduce the access-scan shapes of the paper's
//! Figures 6 (BERT: a stable hot core plus input-dependent extras), 8
//! (runtime pages barely recalled after the first request) and 9 (Web:
//! Pareto-popular cached pages).

use faasmem_sim::SimRng;

/// How requests touch a function's init segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitAccess {
    /// The same leading fraction of init pages is touched every request
    /// (imports, model weights).
    FixedHot {
        /// Fraction of init pages in the always-hot prefix, `[0, 1]`.
        hot_fraction: f64,
    },
    /// A fixed hot prefix plus a per-request random sample of the rest —
    /// BERT's "different requests access different nodes" behaviour.
    HotPlusRandom {
        /// Fraction of init pages in the always-hot prefix.
        hot_fraction: f64,
        /// Fraction of init pages drawn uniformly at random per request.
        random_fraction: f64,
    },
    /// Pages are selected by Pareto popularity: a few pages are touched
    /// by almost every request, most almost never (fine-grained caches).
    ParetoPages {
        /// Pareto shape; smaller = heavier tail.
        alpha: f64,
        /// Fraction of init pages touched per request.
        per_request_fraction: f64,
    },
    /// The init segment is a cache of `objects` equally sized objects
    /// (rendered HTML pages); each request touches `per_request` whole
    /// objects chosen by Pareto popularity. This is Web's Fig 9 pattern:
    /// every scan column shows several contiguous bars, and rarely
    /// requested objects keep surfacing for many requests — which is why
    /// Web needs a large request window (§5.2).
    ParetoObjects {
        /// Pareto shape; smaller = heavier tail (more distinct objects).
        alpha: f64,
        /// Number of cached objects the init segment holds.
        objects: u32,
        /// Objects touched per request.
        per_request: u32,
    },
    /// Every request walks the whole init segment (Graph's BFS).
    FullTraversal,
}

/// A set of segment-relative page indexes: the dense prefix
/// `[0, prefix)` plus sorted, distinct extras, all `>= prefix`.
///
/// Every plan the planner makes has this shape — a hot prefix (possibly
/// empty) and a few scattered pages past it — so the page table can
/// touch the prefix word by word and only the extras one at a time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessSet {
    prefix: u32,
    extras: Vec<u32>,
}

/// The iterator [`AccessSet::iter`] returns: the prefix, then the extras.
pub type AccessIter<'a> =
    std::iter::Chain<std::ops::Range<u32>, std::iter::Copied<std::slice::Iter<'a, u32>>>;

impl AccessSet {
    /// An empty set.
    pub fn empty() -> Self {
        AccessSet::default()
    }

    /// The set `[0, prefix)` ∪ `extras`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) unless `extras` is strictly ascending
    /// and starts at or after `prefix`.
    pub fn new(prefix: u32, extras: Vec<u32>) -> Self {
        debug_assert!(
            extras.first().is_none_or(|&first| first >= prefix)
                && extras.windows(2).all(|w| w[0] < w[1]),
            "extras must be sorted, distinct and past the prefix"
        );
        AccessSet { prefix, extras }
    }

    /// Length of the dense prefix `[0, prefix)`.
    pub fn prefix(&self) -> u32 {
        self.prefix
    }

    /// The sorted, distinct indexes past the prefix.
    pub fn extras(&self) -> &[u32] {
        &self.extras
    }

    /// Number of pages in the set.
    pub fn len(&self) -> usize {
        self.prefix as usize + self.extras.len()
    }

    /// `true` when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over the page indexes in ascending order.
    pub fn iter(&self) -> AccessIter<'_> {
        (0..self.prefix).chain(self.extras.iter().copied())
    }

    /// `true` if `index` is in the set.
    pub fn contains(&self, index: u32) -> bool {
        index < self.prefix || self.extras.binary_search(&index).is_ok()
    }
}

/// The pages one request touches, expressed segment-relatively.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestAccess {
    /// Runtime-segment pages touched (the action proxy's working set).
    pub runtime: AccessSet,
    /// Init-segment pages touched.
    pub init: AccessSet,
    /// Execution-segment pages allocated, touched and freed.
    pub exec_pages: u32,
}

impl RequestAccess {
    /// Plans the page accesses of one request.
    ///
    /// * `model` — the benchmark's init-access behaviour.
    /// * `runtime_hot_pages` — size of the runtime working set in pages.
    /// * `init_pages` — total init-segment pages.
    /// * `exec_pages` — execution-segment pages this request allocates.
    /// * `rng` — deterministic randomness for the stochastic models.
    pub fn plan(
        model: InitAccess,
        runtime_hot_pages: u32,
        init_pages: u32,
        exec_pages: u32,
        rng: &mut SimRng,
    ) -> RequestAccess {
        Self::plan_with_rare_runtime(
            model,
            runtime_hot_pages,
            runtime_hot_pages,
            0.0,
            init_pages,
            exec_pages,
            rng,
        )
    }

    /// Like [`RequestAccess::plan`], but with probability
    /// `rare_runtime_prob` the request additionally touches one random
    /// page from the *cold* part of the runtime segment
    /// (`[runtime_hot_pages, runtime_total_pages)`). This reproduces the
    /// paper's Fig 8 observation that a handful of Runtime-Pucket pages
    /// are recalled after the reactive offload — rarely, but not never.
    pub fn plan_with_rare_runtime(
        model: InitAccess,
        runtime_hot_pages: u32,
        runtime_total_pages: u32,
        rare_runtime_prob: f64,
        init_pages: u32,
        exec_pages: u32,
        rng: &mut SimRng,
    ) -> RequestAccess {
        let init = Self::plan_init(model, init_pages, rng);
        let runtime = if runtime_total_pages > runtime_hot_pages && rng.chance(rare_runtime_prob) {
            let cold =
                rng.range(u64::from(runtime_hot_pages), u64::from(runtime_total_pages)) as u32;
            AccessSet::new(runtime_hot_pages, vec![cold])
        } else {
            AccessSet::new(runtime_hot_pages, Vec::new())
        };
        RequestAccess {
            runtime,
            init,
            exec_pages,
        }
    }

    fn plan_init(model: InitAccess, init_pages: u32, rng: &mut SimRng) -> AccessSet {
        if init_pages == 0 {
            return AccessSet::empty();
        }
        match model {
            InitAccess::FullTraversal => AccessSet::new(init_pages, Vec::new()),
            InitAccess::FixedHot { hot_fraction } => {
                AccessSet::new(fraction_of(init_pages, hot_fraction), Vec::new())
            }
            InitAccess::HotPlusRandom {
                hot_fraction,
                random_fraction,
            } => {
                let hot = fraction_of(init_pages, hot_fraction);
                let extra = fraction_of(init_pages, random_fraction);
                if extra == 0 || hot >= init_pages {
                    return AccessSet::new(hot.min(init_pages), Vec::new());
                }
                // Sample without replacement from the cold tail.
                let tail = init_pages - hot;
                let take = extra.min(tail);
                let mut extras = sample_without_replacement(tail, take, rng);
                for s in &mut extras {
                    *s += hot;
                }
                AccessSet::new(hot, extras)
            }
            InitAccess::ParetoPages {
                alpha,
                per_request_fraction,
            } => {
                let per_request = fraction_of(init_pages, per_request_fraction).max(1);
                let mut indexes = Vec::with_capacity(per_request as usize);
                for _ in 0..per_request {
                    indexes.push(rng.pareto_index(init_pages as usize, alpha) as u32);
                }
                indexes.sort_unstable();
                indexes.dedup();
                AccessSet::new(0, indexes)
            }
            InitAccess::ParetoObjects {
                alpha,
                objects,
                per_request,
            } => {
                let objects = objects.max(1).min(init_pages.max(1));
                let mut chosen = Vec::with_capacity(per_request as usize);
                for _ in 0..per_request.max(1) {
                    chosen.push(rng.pareto_index(objects as usize, alpha) as u32);
                }
                chosen.sort_unstable();
                chosen.dedup();
                // `objects <= init_pages`, so every object spans at least
                // one page and ascending objects give ascending, disjoint
                // page runs: the concatenation is already sorted.
                let mut indexes = Vec::new();
                for obj in chosen {
                    let start =
                        (u64::from(obj) * u64::from(init_pages) / u64::from(objects)) as u32;
                    let end =
                        ((u64::from(obj) + 1) * u64::from(init_pages) / u64::from(objects)) as u32;
                    indexes.extend(start..end);
                }
                AccessSet::new(0, indexes)
            }
        }
    }
}

fn fraction_of(total: u32, fraction: f64) -> u32 {
    ((total as f64 * fraction).round() as u32).min(total)
}

/// Draws `take` distinct values from `[0, n)` (Floyd's algorithm) and
/// returns them ascending. Membership lives in a bitmap over `[0, n)`,
/// so reading the sample out in order needs no sort.
fn sample_without_replacement(n: u32, take: u32, rng: &mut SimRng) -> Vec<u32> {
    debug_assert!(take <= n);
    let mut chosen = vec![0u64; (n as usize).div_ceil(64)];
    for j in (n - take)..n {
        let t = rng.below(u64::from(j) + 1) as usize;
        let pick = if chosen[t >> 6] >> (t & 63) & 1 != 0 {
            j as usize
        } else {
            t
        };
        chosen[pick >> 6] |= 1u64 << (pick & 63);
    }
    let mut out = Vec::with_capacity(take as usize);
    for (w, &word) in chosen.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            out.push(((w << 6) | bits.trailing_zeros() as usize) as u32);
            bits &= bits - 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from(99)
    }

    #[test]
    fn access_set_prefix_semantics() {
        let s = AccessSet::new(4, Vec::new());
        assert_eq!(s.len(), 4);
        assert!(s.contains(0) && s.contains(3));
        assert!(!s.contains(4));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn access_set_prefix_plus_extras_semantics() {
        let s = AccessSet::new(2, vec![4, 7]);
        assert_eq!(s.len(), 4);
        assert_eq!((s.prefix(), s.extras()), (2, &[4, 7][..]));
        assert!(s.contains(1) && s.contains(4));
        assert!(!s.contains(2) && !s.contains(5));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 4, 7]);
        assert!(AccessSet::empty().is_empty());
    }

    #[test]
    fn full_traversal_touches_everything() {
        let a = RequestAccess::plan(InitAccess::FullTraversal, 10, 1000, 5, &mut rng());
        assert_eq!(a.init.len(), 1000);
        assert_eq!(a.runtime.len(), 10);
        assert_eq!(a.exec_pages, 5);
    }

    #[test]
    fn fixed_hot_is_deterministic_prefix() {
        let mut r = rng();
        let a = RequestAccess::plan(
            InitAccess::FixedHot { hot_fraction: 0.25 },
            0,
            400,
            0,
            &mut r,
        );
        assert_eq!(a.init, AccessSet::new(100, Vec::new()));
        // Same every request regardless of RNG state.
        let b = RequestAccess::plan(
            InitAccess::FixedHot { hot_fraction: 0.25 },
            0,
            400,
            0,
            &mut r,
        );
        assert_eq!(a.init, b.init);
    }

    #[test]
    fn hot_plus_random_has_stable_core_and_varying_tail() {
        let model = InitAccess::HotPlusRandom {
            hot_fraction: 0.4,
            random_fraction: 0.1,
        };
        let mut r = rng();
        let a = RequestAccess::plan(model, 0, 1000, 0, &mut r);
        let b = RequestAccess::plan(model, 0, 1000, 0, &mut r);
        // Core always present.
        for i in 0..400 {
            assert!(a.init.contains(i) && b.init.contains(i));
        }
        // Roughly 40% + 10% of pages touched.
        assert!((450..=500).contains(&a.init.len()));
        // The random tails differ between requests.
        let tail_a: Vec<u32> = a.init.iter().filter(|&i| i >= 400).collect();
        let tail_b: Vec<u32> = b.init.iter().filter(|&i| i >= 400).collect();
        assert_ne!(tail_a, tail_b);
    }

    #[test]
    fn pareto_pages_prefer_popular_prefix() {
        let model = InitAccess::ParetoPages {
            alpha: 1.1,
            per_request_fraction: 0.05,
        };
        let mut r = rng();
        let mut hits = vec![0u32; 1000];
        for _ in 0..200 {
            let a = RequestAccess::plan(model, 0, 1000, 0, &mut r);
            for i in a.init.iter() {
                hits[i as usize] += 1;
            }
        }
        let head: u32 = hits[..100].iter().sum();
        let tail: u32 = hits[900..].iter().sum();
        assert!(head > tail * 5, "head {head} vs tail {tail}");
    }

    #[test]
    fn pareto_touches_at_least_one_page() {
        let model = InitAccess::ParetoPages {
            alpha: 1.5,
            per_request_fraction: 0.0001,
        };
        let a = RequestAccess::plan(model, 0, 100, 0, &mut rng());
        assert!(!a.init.is_empty());
    }

    #[test]
    fn zero_init_pages_is_empty_set() {
        for model in [
            InitAccess::FullTraversal,
            InitAccess::FixedHot { hot_fraction: 0.5 },
            InitAccess::HotPlusRandom {
                hot_fraction: 0.5,
                random_fraction: 0.1,
            },
            InitAccess::ParetoPages {
                alpha: 1.0,
                per_request_fraction: 0.1,
            },
            InitAccess::ParetoObjects {
                alpha: 1.0,
                objects: 10,
                per_request: 2,
            },
        ] {
            let a = RequestAccess::plan(model, 4, 0, 2, &mut rng());
            assert!(a.init.is_empty(), "{model:?}");
        }
    }

    #[test]
    fn pareto_objects_touch_whole_contiguous_objects() {
        let model = InitAccess::ParetoObjects {
            alpha: 0.9,
            objects: 10,
            per_request: 3,
        };
        let mut r = rng();
        let a = RequestAccess::plan(model, 0, 1000, 0, &mut r);
        // Each object spans 100 pages; between 1 and 3 distinct objects.
        assert!(a.init.len().is_multiple_of(100), "len {}", a.init.len());
        assert!((100..=300).contains(&a.init.len()));
        // Contiguity within objects: indexes come in full 100-page runs.
        let v: Vec<u32> = a.init.iter().collect();
        for chunk in v.chunks(100) {
            assert_eq!(chunk[99], chunk[0] + 99);
        }
    }

    #[test]
    fn pareto_objects_keep_revealing_new_objects() {
        let model = InitAccess::ParetoObjects {
            alpha: 0.9,
            objects: 100,
            per_request: 3,
        };
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        let mut new_at_request = Vec::new();
        for _ in 0..30 {
            let a = RequestAccess::plan(model, 0, 5000, 0, &mut r);
            let before = seen.len();
            for i in a.init.iter() {
                seen.insert(i);
            }
            new_at_request.push(seen.len() - before);
        }
        // Growth must persist past the first few requests (web's large
        // request window) and eventually slow down.
        let early: usize = new_at_request[..5].iter().sum();
        let late: usize = new_at_request[25..].iter().sum();
        assert!(early > 0 && late < early, "early {early} late {late}");
        assert!(
            new_at_request[5..15].iter().sum::<usize>() > 0,
            "still growing after 5 reqs"
        );
    }

    #[test]
    fn rare_runtime_touch_hits_cold_pages_occasionally() {
        let mut r = rng();
        let mut rare_hits = 0;
        for _ in 0..2000 {
            let a = RequestAccess::plan_with_rare_runtime(
                InitAccess::FullTraversal,
                10,
                100,
                0.01,
                4,
                2,
                &mut r,
            );
            // Hot prefix always present.
            for i in 0..10 {
                assert!(a.runtime.contains(i));
            }
            if a.runtime.len() == 11 {
                rare_hits += 1;
                let cold: Vec<u32> = a.runtime.iter().filter(|&i| i >= 10).collect();
                assert_eq!(cold.len(), 1);
                assert!(cold[0] < 100);
            } else {
                assert_eq!(a.runtime.len(), 10);
            }
        }
        // ~1% of 2000 = ~20; allow wide slack but require "rare, not never".
        assert!((2..=80).contains(&rare_hits), "rare hits {rare_hits}");
    }

    #[test]
    fn rare_runtime_touch_disabled_when_no_cold_pages() {
        let mut r = rng();
        let a = RequestAccess::plan_with_rare_runtime(
            InitAccess::FullTraversal,
            10,
            10,
            1.0,
            0,
            0,
            &mut r,
        );
        assert_eq!(a.runtime, AccessSet::new(10, Vec::new()));
    }

    #[test]
    fn sample_without_replacement_is_distinct_and_in_range() {
        let mut r = rng();
        for _ in 0..50 {
            let v = sample_without_replacement(100, 30, &mut r);
            assert_eq!(v.len(), 30);
            let set: std::collections::HashSet<_> = v.iter().collect();
            assert_eq!(set.len(), 30);
            assert!(v.iter().all(|&x| x < 100));
        }
    }

    #[test]
    fn sample_full_population() {
        let mut r = rng();
        let mut v = sample_without_replacement(10, 10, &mut r);
        v.sort_unstable();
        assert_eq!(v, (0..10).collect::<Vec<_>>());
    }

    proptest::proptest! {
        #[test]
        fn prop_extras_sorted_distinct_past_prefix(
            hot in 0.0f64..1.0,
            rand_frac in 0.0f64..0.5,
            pages in 1u32..2000,
            seed in 0u64..1000,
        ) {
            let model = InitAccess::HotPlusRandom { hot_fraction: hot, random_fraction: rand_frac };
            let mut r = SimRng::seed_from(seed);
            let a = RequestAccess::plan(model, 0, pages, 0, &mut r);
            let v = a.init.extras();
            proptest::prop_assert!(v.windows(2).all(|w| w[0] < w[1]));
            proptest::prop_assert!(v.iter().all(|&i| i >= a.init.prefix() && i < pages));
            proptest::prop_assert!(a.init.len() <= pages as usize);
        }
    }

    /// The planner as it was before plans took the prefix-plus-extras
    /// form: every set materialised as one sorted, de-duplicated index
    /// list, Floyd membership kept in a `HashSet`. The oracle the
    /// current planner must match draw for draw.
    mod reference {
        use super::super::{fraction_of, InitAccess};
        use faasmem_sim::SimRng;

        pub fn plan_with_rare_runtime(
            model: InitAccess,
            runtime_hot_pages: u32,
            runtime_total_pages: u32,
            rare_runtime_prob: f64,
            init_pages: u32,
            rng: &mut SimRng,
        ) -> (Vec<u32>, Vec<u32>) {
            let init = plan_init(model, init_pages, rng);
            let mut runtime: Vec<u32> = (0..runtime_hot_pages).collect();
            if runtime_total_pages > runtime_hot_pages && rng.chance(rare_runtime_prob) {
                let cold =
                    rng.range(u64::from(runtime_hot_pages), u64::from(runtime_total_pages)) as u32;
                runtime.push(cold);
            }
            (runtime, init)
        }

        fn plan_init(model: InitAccess, init_pages: u32, rng: &mut SimRng) -> Vec<u32> {
            if init_pages == 0 {
                return Vec::new();
            }
            let mut indexes = Vec::new();
            match model {
                InitAccess::FullTraversal => indexes.extend(0..init_pages),
                InitAccess::FixedHot { hot_fraction } => {
                    indexes.extend(0..fraction_of(init_pages, hot_fraction));
                }
                InitAccess::HotPlusRandom {
                    hot_fraction,
                    random_fraction,
                } => {
                    let hot = fraction_of(init_pages, hot_fraction);
                    let extra = fraction_of(init_pages, random_fraction);
                    indexes.extend(0..hot.min(init_pages));
                    if extra == 0 || hot >= init_pages {
                        return indexes;
                    }
                    let tail = init_pages - hot;
                    let take = extra.min(tail);
                    let mut chosen = std::collections::HashSet::new();
                    for j in (tail - take)..tail {
                        let t = rng.below(u64::from(j) + 1) as u32;
                        let pick = if chosen.contains(&t) { j } else { t };
                        chosen.insert(pick);
                        indexes.push(hot + pick);
                    }
                }
                InitAccess::ParetoPages {
                    alpha,
                    per_request_fraction,
                } => {
                    let per_request = fraction_of(init_pages, per_request_fraction).max(1);
                    for _ in 0..per_request {
                        indexes.push(rng.pareto_index(init_pages as usize, alpha) as u32);
                    }
                }
                InitAccess::ParetoObjects {
                    alpha,
                    objects,
                    per_request,
                } => {
                    let objects = objects.max(1).min(init_pages.max(1));
                    let mut chosen = Vec::new();
                    for _ in 0..per_request.max(1) {
                        chosen.push(rng.pareto_index(objects as usize, alpha) as u32);
                    }
                    chosen.sort_unstable();
                    chosen.dedup();
                    for obj in chosen {
                        let start =
                            (u64::from(obj) * u64::from(init_pages) / u64::from(objects)) as u32;
                        let end = ((u64::from(obj) + 1) * u64::from(init_pages)
                            / u64::from(objects)) as u32;
                        indexes.extend(start..end.max(start + 1).min(init_pages));
                    }
                }
            }
            indexes.sort_unstable();
            indexes.dedup();
            indexes
        }
    }

    /// Asserts `set` is exactly `expected` (sorted, distinct) through
    /// every query the simulator makes: iteration order, length and
    /// membership of each index up to `bound`.
    fn assert_same_set(set: &AccessSet, expected: &[u32], bound: u32, what: &str) {
        assert_eq!(set.iter().collect::<Vec<_>>(), expected, "{what}: iter");
        assert_eq!(set.len(), expected.len(), "{what}: len");
        for i in 0..bound {
            assert_eq!(
                set.contains(i),
                expected.binary_search(&i).is_ok(),
                "{what}: contains({i})"
            );
        }
    }

    #[test]
    fn planner_matches_reference_planner_draw_for_draw() {
        let models = [
            InitAccess::FullTraversal,
            InitAccess::FixedHot { hot_fraction: 0.3 },
            InitAccess::FixedHot { hot_fraction: 1.0 },
            InitAccess::HotPlusRandom {
                hot_fraction: 0.6,
                random_fraction: 0.05,
            },
            // `take == tail`: the whole cold tail is sampled.
            InitAccess::HotPlusRandom {
                hot_fraction: 0.5,
                random_fraction: 0.9,
            },
            // `extra == 0` and `hot >= init_pages`.
            InitAccess::HotPlusRandom {
                hot_fraction: 0.5,
                random_fraction: 0.0,
            },
            InitAccess::HotPlusRandom {
                hot_fraction: 1.0,
                random_fraction: 0.2,
            },
            InitAccess::ParetoPages {
                alpha: 1.1,
                per_request_fraction: 0.05,
            },
            InitAccess::ParetoObjects {
                alpha: 0.9,
                objects: 37,
                per_request: 4,
            },
            // More objects than pages: clamped to one page per object.
            InitAccess::ParetoObjects {
                alpha: 0.9,
                objects: 500,
                per_request: 6,
            },
        ];
        for model in models {
            for init_pages in [0u32, 1, 63, 64, 130, 1000] {
                for seed in 0..40u64 {
                    let mut new_rng = SimRng::seed_from(seed);
                    let mut old_rng = SimRng::seed_from(seed);
                    // Rare-runtime branch taken often (and never, when
                    // the runtime has no cold pages).
                    let (rt_hot, rt_total) = if seed % 3 == 0 { (8, 8) } else { (8, 70) };
                    let plan = RequestAccess::plan_with_rare_runtime(
                        model,
                        rt_hot,
                        rt_total,
                        0.5,
                        init_pages,
                        3,
                        &mut new_rng,
                    );
                    let (runtime, init) = reference::plan_with_rare_runtime(
                        model,
                        rt_hot,
                        rt_total,
                        0.5,
                        init_pages,
                        &mut old_rng,
                    );
                    let what = format!("{model:?} pages={init_pages} seed={seed}");
                    assert_same_set(&plan.runtime, &runtime, rt_total + 1, &what);
                    assert_same_set(&plan.init, &init, init_pages + 1, &what);
                    assert_eq!(plan.exec_pages, 3);
                    for _ in 0..4 {
                        assert_eq!(new_rng.next_u64(), old_rng.next_u64(), "{what}: rng state");
                    }
                }
            }
        }
    }
}
