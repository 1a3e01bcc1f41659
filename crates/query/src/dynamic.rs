//! Online maintenance: absorbing new users without rebuilding the graph.
//!
//! The paper's motivating scenario is freshness ("online news recommenders,
//! in which the use of fresh data is of utmost importance", §I): between two
//! full C² rebuilds, newly arrived users still need neighbourhoods *now*.
//! [`DynamicIndex`] grows a built graph and answers that need:
//!
//! * [`DynamicIndex::add_user`] beam-searches the current graph for the
//!   newcomer's approximate KNN, installs it, and offers the newcomer as a
//!   reverse neighbour to every user it visited — so existing
//!   neighbourhoods keep improving too;
//! * the placement search starts like a query does: bound to the base
//!   graph's entry index ([`DynamicIndex::with_entries`]) it is seeded
//!   from the FastRandomHash clusters the newcomer's profile routes to,
//!   otherwise at random users;
//! * the beam expansion is batched through
//!   [`cnc_similarity::kernel::one_vs_many`] (see the crate's `search` module), over
//!   raw profiles or — in [`DynamicIndex::with_goldfinger`] mode — over
//!   GoldFinger fingerprints, each newcomer's row appended with
//!   [`GoldFinger::push_user`];
//! * the amortized cost per insertion is a few hundred similarities,
//!   versus `n` for a linear scan and a full rebuild for batch algorithms.
//!
//! The index is a **delta over the snapshot it opens on**, not a copy of
//! it. The base users' profiles and fingerprint rows are read in place
//! from the dataset and fingerprint set it is handed — O(1) clones when
//! those are shared, as a published serving epoch's are — and so is every
//! neighbour row no insert has changed: [`KnnGraph`] copies a CSR row on
//! its first write. The index owns only what the stream adds: the
//! newcomers' profiles, fingerprint rows and neighbour rows, plus the base
//! rows a symmetric update changed. [`DynamicIndex::to_dataset`] and
//! [`DynamicIndex::to_fingerprints`] give base ⊕ inserts by appending the
//! inserts to the snapshot's buffers ([`Dataset::appended`],
//! [`GoldFinger::appended`]): in place, O(inserts), when those buffers
//! have room past the snapshot's end and no other append claimed it
//! first; one copy of the snapshot otherwise.
//!
//! A production deployment alternates: C² rebuild every epoch,
//! [`DynamicIndex`] absorbing the stream in between — exactly the writer
//! loop of `cnc-serve`'s `ServingEngine`, which builds the next published
//! epoch from this index's dataset and fingerprints.

use crate::beam::BeamSearchConfig;
use crate::index::Searcher;
use crate::search::{batched_beam_search, pick_seeds, BeamSolve};
use cnc_dataset::{Dataset, DatasetBuilder, ItemId, UserId};
use cnc_graph::{EntryIndex, KnnGraph, Neighbor};
use cnc_similarity::kernel::{solve_query_words_with_tail, RawQueryKernel};
use cnc_similarity::GoldFinger;
use std::sync::Arc;

/// A growable KNN index: a snapshot graph plus online insertions.
pub struct DynamicIndex {
    /// The snapshot's users, read in place.
    base: Dataset,
    /// The inserted users' profiles (sorted, deduplicated), as ids
    /// `base.num_users()..`.
    tail: DatasetBuilder,
    graph: KnnGraph,
    config: BeamSearchConfig,
    /// Fingerprint scoring mode; `None` scores with exact Jaccard on the
    /// raw profiles.
    fingerprints: Option<Fingerprints>,
    /// The base graph's entry index (`None` = random seeds). Inserted
    /// users are not in it; placements reach them over graph links.
    entries: Option<Arc<EntryIndex>>,
    /// Placement-search scratch, kept across inserts (the visited set
    /// grows with the index instead of being reallocated per insert).
    searcher: Searcher,
}

/// The snapshot's fingerprint set, read in place, and the rows of the
/// users inserted since, in the same width and seed.
struct Fingerprints {
    base: GoldFinger,
    tail: GoldFinger,
}

impl DynamicIndex {
    /// Takes ownership of a built graph and reads the profiles it was
    /// built on in place; insertions are scored with exact Jaccard.
    /// `dataset` is cloned: O(1) when it is shared (see
    /// [`Dataset::into_shared`]), a copy otherwise.
    ///
    /// # Panics
    /// Panics if the graph and dataset disagree on the user count, or the
    /// beam configuration is invalid for the graph's `k`.
    pub fn new(dataset: &Dataset, graph: KnnGraph, config: BeamSearchConfig) -> Self {
        Self::build(dataset, graph, config, None)
    }

    /// Like [`DynamicIndex::new`], but scores insertions on GoldFinger
    /// fingerprints (which must cover the dataset, and are read in place);
    /// each inserted user's fingerprint row is appended beside them.
    ///
    /// # Panics
    /// Panics additionally if the fingerprints don't cover the dataset.
    pub fn with_goldfinger(
        dataset: &Dataset,
        graph: KnnGraph,
        config: BeamSearchConfig,
        fingerprints: GoldFinger,
    ) -> Self {
        assert_eq!(
            fingerprints.num_users(),
            dataset.num_users(),
            "fingerprints must cover the dataset"
        );
        let tail = GoldFinger::from_parts(Vec::new(), fingerprints.bits(), fingerprints.seed())
            .expect("an empty set of the base's width is valid");
        Self::build(dataset, graph, config, Some(Fingerprints { base: fingerprints, tail }))
    }

    fn build(
        dataset: &Dataset,
        graph: KnnGraph,
        config: BeamSearchConfig,
        fingerprints: Option<Fingerprints>,
    ) -> Self {
        assert_eq!(dataset.num_users(), graph.num_users(), "graph/dataset user mismatch");
        if let Err(msg) = config.validate(graph.k()) {
            panic!("invalid beam search config: {msg}");
        }
        DynamicIndex {
            base: dataset.clone(),
            tail: DatasetBuilder::new(),
            graph,
            config,
            fingerprints,
            entries: None,
            searcher: Searcher::new(dataset.num_users()),
        }
    }

    /// Binds the base graph's entry index, so placement searches start in
    /// the clusters the newcomer's profile routes to.
    ///
    /// # Panics
    /// Panics if the index names users the graph does not have.
    pub fn with_entries(mut self, entries: Arc<EntryIndex>) -> Self {
        assert!(
            entries.user_bound() <= self.graph.num_users(),
            "entry index must be built on this graph's users"
        );
        self.entries = Some(entries);
        self
    }

    /// Current number of users (base + inserted).
    pub fn num_users(&self) -> usize {
        self.base.num_users() + self.tail.num_users()
    }

    /// Users inserted since the snapshot.
    pub fn inserted_users(&self) -> usize {
        self.tail.num_users()
    }

    /// The profile of `user`.
    pub fn profile(&self, user: UserId) -> &[ItemId] {
        match (user as usize).checked_sub(self.base.num_users()) {
            None => self.base.profile(user),
            Some(inserted) => self.tail.profile(inserted),
        }
    }

    /// The fingerprint row of `user`, when scoring on fingerprints.
    pub fn fingerprint(&self, user: UserId) -> Option<&[u64]> {
        let gf = self.fingerprints.as_ref()?;
        Some(match (user as usize).checked_sub(gf.base.num_users()) {
            None => gf.base.fingerprint(user),
            Some(inserted) => gf.tail.fingerprint(inserted as UserId),
        })
    }

    /// The current neighbourhood of `user` (best first).
    pub fn knn(&self, user: UserId) -> Vec<Neighbor> {
        self.graph.neighbors(user).sorted()
    }

    /// The underlying graph (e.g. to hand to a recommender).
    pub fn graph(&self) -> &KnnGraph {
        &self.graph
    }

    /// The current profiles (base + inserted) as one immutable CSR
    /// dataset — the input of the next epoch's rebuild in the serve loop.
    /// Item ids keep the source dataset's universe floor.
    ///
    /// The inserts are appended to the base's arrays
    /// ([`Dataset::appended`]): written in place past the base's end when
    /// its buffers have room and this is the first append from them, so
    /// the result shares the base's allocations; copied once otherwise
    /// (an owned or mapped base, no room left, or a second call).
    pub fn to_dataset(&self) -> Dataset {
        self.base.appended(&self.tail)
    }

    /// The current fingerprints (base + inserted rows) as one set — the
    /// fingerprints of the next epoch's rebuild, equal to fingerprinting
    /// [`DynamicIndex::to_dataset`] afresh; `None` when scoring on raw
    /// profiles. Appended like [`DynamicIndex::to_dataset`]
    /// ([`GoldFinger::appended`]).
    pub fn to_fingerprints(&self) -> Option<GoldFinger> {
        let gf = self.fingerprints.as_ref()?;
        Some(gf.base.appended(&gf.tail))
    }

    /// Inserts a new user with the given profile; returns her id and the
    /// number of similarity computations spent.
    ///
    /// The newcomer's KNN comes from a batched beam search over the
    /// current graph; every user *visited* by the search is also offered
    /// the newcomer as a candidate neighbour (the symmetric update that
    /// keeps the graph fresh for existing users).
    ///
    /// `config.max_comparisons` bounds the placement search exactly like
    /// a query (a change from the original insertion loop, which ignored
    /// the cap) — insert latency gets the same bound queries get, and the
    /// semantics are locked by the capped equivalence test below.
    pub fn add_user(&mut self, mut profile: Vec<ItemId>, seed: u64) -> (UserId, usize) {
        profile.sort_unstable();
        profile.dedup();
        let n = self.num_users();
        let new_id = n as UserId;

        // Beam search against current members (the newcomer is not yet in
        // the graph, so the search space is exactly the existing users).
        let searcher = &mut self.searcher;
        pick_seeds(self.entries.as_deref(), &profile, n, &self.config, seed, searcher);
        let (beam, comparisons) = match &self.fingerprints {
            None => batched_beam_search(
                &RawQueryKernel::with_tail(&self.base, &self.tail, &profile),
                &self.graph,
                searcher,
                &self.config,
            ),
            Some(gf) => {
                let qwords = gf.base.fingerprint_profile(&profile);
                solve_query_words_with_tail(
                    gf.base.words(),
                    gf.tail.words(),
                    gf.base.words_per_user(),
                    &qwords,
                    BeamSolve { graph: &self.graph, searcher, config: &self.config },
                )
            }
        };

        // Install the newcomer.
        if let Some(gf) = &mut self.fingerprints {
            gf.tail.push_user(&profile);
        }
        self.tail.push_sorted_profile(&profile);
        self.graph.add_user();
        for nb in beam.sorted() {
            self.graph.insert(new_id, nb.user, nb.sim);
            // Symmetric update: the newcomer may be a better neighbour for
            // users the search touched.
            self.graph.insert(nb.user, new_id, nb.sim);
        }
        (new_id, comparisons)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beam::VisitedSet;
    use crate::index::tests::{bucket_entries, seeds_of};
    use cnc_baselines::{BruteForce, BuildContext, KnnAlgorithm};
    use cnc_dataset::SyntheticConfig;
    use cnc_graph::NeighborList;
    use cnc_similarity::kernel::{solve_query_words, SimKernel};
    use cnc_similarity::{Jaccard, SimilarityBackend, SimilarityData};
    use proptest::prelude::*;
    use std::collections::BinaryHeap;

    fn base() -> (Dataset, KnnGraph) {
        let mut cfg = SyntheticConfig::small(909);
        cfg.num_users = 400;
        cfg.num_items = 300;
        cfg.communities = 8;
        cfg.mean_profile = 20.0;
        cfg.min_profile = 8;
        let ds = cfg.generate();
        let sim = SimilarityData::build(SimilarityBackend::Raw, &ds);
        let ctx = BuildContext { dataset: &ds, sim: &sim, k: 10, threads: 0, seed: 2 };
        (ds.clone(), BruteForce.build(&ctx))
    }

    fn config() -> BeamSearchConfig {
        BeamSearchConfig { beam_width: 32, entry_points: 6, max_comparisons: 0 }
    }

    /// The same graph as owned lists, every row copied in heap order.
    fn promoted(graph: &KnnGraph) -> KnnGraph {
        let mut lists = KnnGraph::new(graph.num_users(), graph.k());
        for (u, view) in graph.iter() {
            *lists.neighbors_mut(u) = view.to_list();
        }
        lists
    }

    /// Exact Jaccard over owned profile vectors, query as the last row —
    /// the kernel the reference index scores with.
    struct ProfilesKernel<'a> {
        profiles: &'a [Vec<ItemId>],
        query: &'a [ItemId],
    }

    impl ProfilesKernel<'_> {
        fn profile(&self, i: u32) -> &[ItemId] {
            self.profiles.get(i as usize).map_or(self.query, Vec::as_slice)
        }
    }

    impl SimKernel for ProfilesKernel<'_> {
        fn len(&self) -> usize {
            self.profiles.len() + 1
        }

        fn sim(&self, i: u32, j: u32) -> f32 {
            Jaccard::similarity(self.profile(i), self.profile(j)) as f32
        }
    }

    /// The index as it was before it became a delta over its snapshot:
    /// every profile copied into owned vectors, the graph promoted to
    /// owned lists as a whole, and one growable fingerprint set. The
    /// oracle [`DynamicIndex`] must reproduce insert for insert.
    struct Reference {
        profiles: Vec<Vec<ItemId>>,
        graph: KnnGraph,
        config: BeamSearchConfig,
        min_num_items: u32,
        fingerprints: Option<GoldFinger>,
        entries: Option<Arc<EntryIndex>>,
        searcher: Searcher,
    }

    impl Reference {
        fn new(
            dataset: &Dataset,
            graph: &KnnGraph,
            config: BeamSearchConfig,
            fingerprints: Option<&GoldFinger>,
            entries: Option<Arc<EntryIndex>>,
        ) -> Self {
            Reference {
                profiles: dataset.iter().map(|(_, p)| p.to_vec()).collect(),
                graph: promoted(graph),
                config,
                min_num_items: dataset.num_items() as u32,
                fingerprints: fingerprints.map(|gf| {
                    GoldFinger::from_parts(gf.words().to_vec(), gf.bits(), gf.seed()).unwrap()
                }),
                entries,
                searcher: Searcher::new(dataset.num_users()),
            }
        }

        fn add_user(&mut self, mut profile: Vec<ItemId>, seed: u64) -> (UserId, usize) {
            profile.sort_unstable();
            profile.dedup();
            let new_id = self.profiles.len() as UserId;
            let searcher = &mut self.searcher;
            let n = self.profiles.len();
            pick_seeds(self.entries.as_deref(), &profile, n, &self.config, seed, searcher);
            let (beam, comparisons) = match &self.fingerprints {
                None => batched_beam_search(
                    &ProfilesKernel { profiles: &self.profiles, query: &profile },
                    &self.graph,
                    searcher,
                    &self.config,
                ),
                Some(gf) => solve_query_words(
                    gf.words(),
                    gf.words_per_user(),
                    &gf.fingerprint_profile(&profile),
                    BeamSolve { graph: &self.graph, searcher, config: &self.config },
                ),
            };
            if let Some(gf) = &mut self.fingerprints {
                gf.push_user(&profile);
            }
            self.profiles.push(profile);
            self.graph.add_user();
            for nb in beam.sorted() {
                self.graph.insert(new_id, nb.user, nb.sim);
                self.graph.insert(nb.user, new_id, nb.sim);
            }
            (new_id, comparisons)
        }

        fn to_dataset(&self) -> Dataset {
            let mut builder = DatasetBuilder::with_capacity(self.profiles.len());
            for profile in &self.profiles {
                builder.push_sorted_profile(profile);
            }
            builder.build_with_min_items(self.min_num_items)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The delta index is the copying reference, insert for insert:
        /// same `(id, comparisons)` per insert; then the same rows heap
        /// for heap, the same grown dataset (item floor included) and the
        /// same grown fingerprint words. Backends raw, GoldFinger 1024 and
        /// an unspecialised 192; with and without an entry index; capped
        /// and uncapped; a base graph that is a shared CSR or owned lists.
        #[test]
        fn delta_index_matches_the_copying_reference(
            flags in (0usize..3, 0u32..2, 0u32..2, 0u32..2),
            inserts in proptest::collection::vec((0u32..40, 0u32..3, 0u64..1000), 1..30),
        ) {
            let (backend, routed, capped, shared) = flags;
            let (generated, graph) = base();
            // A universe floor above every generated item, and inserts
            // that reach past it.
            let profiles: Vec<Vec<ItemId>> = generated.iter().map(|(_, p)| p.to_vec()).collect();
            let ds = Dataset::from_profiles(profiles, 320);
            let graph = if shared == 1 { graph.into_shared() } else { promoted(&graph) };
            let gf = match backend {
                0 => None,
                1 => Some(GoldFinger::build(&ds, 1024, 17)),
                _ => Some(GoldFinger::build(&ds, 192, 17)),
            };
            let entries =
                (routed == 1).then(|| Arc::new(bucket_entries(&ds, &[0xD1, 0xD2], 48)));
            let beam = BeamSearchConfig {
                max_comparisons: if capped == 1 { 40 } else { 0 },
                ..config()
            };
            let mut index = match &gf {
                None => DynamicIndex::new(&ds, graph.clone(), beam),
                Some(gf) => DynamicIndex::with_goldfinger(&ds, graph.clone(), beam, gf.clone()),
            };
            if let Some(entries) = &entries {
                index = index.with_entries(Arc::clone(entries));
            }
            let mut reference = Reference::new(&ds, &graph, beam, gf.as_ref(), entries);
            for (i, &(donor, kind, seed)) in inserts.iter().enumerate() {
                // Donors repeat, so later newcomers are near earlier ones
                // and placements reach the tail rows.
                let mut profile = ds.profile(donor * 7 % 400).to_vec();
                match kind {
                    0 => {}
                    1 => profile.push(300 + (seed % 40) as u32),
                    _ => profile.truncate(profile.len() / 2),
                }
                prop_assert_eq!(
                    index.add_user(profile.clone(), seed),
                    reference.add_user(profile, seed),
                    "insert {}", i
                );
            }
            prop_assert_eq!(index.num_users(), reference.profiles.len());
            for u in 0..index.num_users() as UserId {
                prop_assert_eq!(
                    index.graph().neighbors(u).as_slice(),
                    reference.graph.neighbors(u).as_slice(),
                    "row {}", u
                );
                prop_assert_eq!(index.knn(u), reference.graph.neighbors(u).sorted());
                prop_assert_eq!(index.profile(u), reference.profiles[u as usize].as_slice());
            }
            let grown = index.to_dataset();
            prop_assert_eq!(grown.num_items(), reference.to_dataset().num_items());
            prop_assert_eq!(grown, reference.to_dataset());
            prop_assert_eq!(
                index.to_fingerprints().map(|gf| gf.words().to_vec()),
                reference.fingerprints.map(|gf| gf.words().to_vec())
            );
        }
    }

    #[test]
    fn base_rows_are_read_in_place() {
        let (ds, graph) = base();
        let (ds, graph) = (ds.into_shared(), graph.into_shared());
        let gf = GoldFinger::build(&ds, 1024, 17).into_shared();
        let mut index = DynamicIndex::with_goldfinger(&ds, graph.clone(), config(), gf.clone());
        for i in 0..20u32 {
            index.add_user(ds.profile(i * 11).to_vec(), i as u64);
        }
        let mut copied = 0;
        for u in 0..ds.num_users() as UserId {
            assert!(std::ptr::eq(index.profile(u), ds.profile(u)), "profile {u} was copied");
            assert!(std::ptr::eq(index.fingerprint(u).unwrap(), gf.fingerprint(u)));
            let (mine, theirs) = (index.graph().neighbors(u).as_slice(), graph.neighbors(u));
            if !std::ptr::eq(mine, theirs.as_slice()) {
                assert_ne!(mine, theirs.as_slice(), "row {u} was copied but not changed");
                copied += 1;
            }
        }
        assert!(copied > 0, "twins must enter their donors' rows");
        assert!(copied <= 20 * config().beam_width);
    }

    /// The seed implementation's scalar insertion loop, kept as the
    /// reference the batched [`DynamicIndex::add_user`] must reproduce —
    /// the installed id, the comparison count, and the final graph —
    /// started from the seeds the shared routine picks.
    fn scalar_add_user(
        profiles: &[Vec<ItemId>],
        graph: &mut KnnGraph,
        entries: Option<&EntryIndex>,
        config: &BeamSearchConfig,
        mut profile: Vec<ItemId>,
        seed: u64,
    ) -> (UserId, usize) {
        profile.sort_unstable();
        profile.dedup();
        let new_id = profiles.len() as UserId;
        let n = profiles.len();
        let mut comparisons = 0usize;
        let mut beam = NeighborList::new(config.beam_width);
        if n > 0 {
            let mut visited = VisitedSet::new(n);
            visited.clear();
            let mut frontier: BinaryHeap<crate::search::Candidate> = BinaryHeap::new();
            for user in seeds_of(entries, &profile, n, config, seed).0 {
                assert!(visited.insert(user), "seeds must be distinct");
                let sim = Jaccard::similarity(&profile, &profiles[user as usize]) as f32;
                comparisons += 1;
                beam.insert(user, sim);
                frontier.push(crate::search::Candidate { sim, user });
            }
            while let Some(best) = frontier.pop() {
                if beam.is_full() && best.sim < beam.worst_sim() {
                    break;
                }
                for edge in graph.neighbors(best.user).iter() {
                    if !visited.insert(edge.user) {
                        continue;
                    }
                    // The cap semantics add_user now shares with queries.
                    if config.max_comparisons > 0 && comparisons >= config.max_comparisons {
                        frontier.clear();
                        break;
                    }
                    let sim = Jaccard::similarity(&profile, &profiles[edge.user as usize]) as f32;
                    comparisons += 1;
                    if beam.insert(edge.user, sim) {
                        frontier.push(crate::search::Candidate { sim, user: edge.user });
                    }
                }
            }
        }
        graph.add_user();
        for nb in beam.sorted() {
            graph.insert(new_id, nb.user, nb.sim);
            graph.insert(nb.user, new_id, nb.sim);
        }
        (new_id, comparisons)
    }

    #[test]
    fn batched_insertion_is_identical_to_the_scalar_path() {
        let (ds, graph) = base();
        // Random seeds, then seeds routed through a bucket index.
        for entries in [None, Some(Arc::new(bucket_entries(&ds, &[0xD1, 0xD2], 48)))] {
            let mut index = DynamicIndex::new(&ds, graph.clone(), config());
            if let Some(entries) = &entries {
                index = index.with_entries(Arc::clone(entries));
            }
            let mut ref_profiles: Vec<Vec<ItemId>> = ds.iter().map(|(_, p)| p.to_vec()).collect();
            let mut ref_graph = graph.clone();
            for i in 0..30u32 {
                let mut profile = ds.profile((i * 13) % 400).to_vec();
                profile.push(295 + i % 5);
                let got = index.add_user(profile.clone(), i as u64);
                let expect = scalar_add_user(
                    &ref_profiles,
                    &mut ref_graph,
                    entries.as_deref(),
                    &config(),
                    profile.clone(),
                    i as u64,
                );
                assert_eq!(got, expect, "insertion {i} diverged");
                profile.sort_unstable();
                profile.dedup();
                ref_profiles.push(profile);
            }
            for u in 0..index.num_users() as u32 {
                assert_eq!(
                    index.knn(u),
                    ref_graph.neighbors(u).sorted(),
                    "user {u} lists diverged"
                );
            }
        }
    }

    #[test]
    fn capped_insertions_match_the_capped_scalar_reference() {
        // max_comparisons now bounds insert placement like a query (a
        // deliberate change from the seed loop, which ignored the cap on
        // inserts); the batched path must match a capped scalar loop in
        // results, counts and the final graph.
        let (ds, graph) = base();
        let capped = BeamSearchConfig { max_comparisons: 40, ..config() };
        let entries = Arc::new(bucket_entries(&ds, &[0xD1, 0xD2], 48));
        let mut index =
            DynamicIndex::new(&ds, graph.clone(), capped).with_entries(Arc::clone(&entries));
        let mut ref_profiles: Vec<Vec<ItemId>> = ds.iter().map(|(_, p)| p.to_vec()).collect();
        let mut ref_graph = graph;
        for i in 0..15u32 {
            let profile = ds.profile((i * 19) % 400).to_vec();
            let got = index.add_user(profile.clone(), i as u64);
            let expect = scalar_add_user(
                &ref_profiles,
                &mut ref_graph,
                Some(&entries),
                &capped,
                profile.clone(),
                i as u64,
            );
            assert_eq!(got, expect, "capped insertion {i} diverged");
            assert!(got.1 <= 40, "cap ignored: {} comparisons", got.1);
            ref_profiles.push(profile);
        }
        for u in 0..index.num_users() as u32 {
            assert_eq!(index.knn(u), ref_graph.neighbors(u).sorted(), "user {u} lists diverged");
        }
    }

    #[test]
    fn goldfinger_insertions_track_the_growable_fingerprints() {
        let (ds, graph) = base();
        let gf = GoldFinger::build(&ds, 1024, 17);
        let mut index = DynamicIndex::with_goldfinger(&ds, graph, config(), gf);
        let mut perfect = 0;
        for i in 0..10u32 {
            let twin = ds.profile(i * 3).to_vec();
            let (id, comparisons) = index.add_user(twin.clone(), i as u64);
            assert!(comparisons > 0);
            // The grown set's last row must equal a fresh fingerprint of
            // the (sorted, deduplicated) inserted profile.
            let grown = index.to_fingerprints().unwrap();
            assert_eq!(grown.num_users(), index.num_users());
            assert_eq!(grown.fingerprint(id), grown.fingerprint_profile(&twin));
            assert_eq!(index.fingerprint(id), Some(grown.fingerprint(id)));
            // A twin scores 1.0 against its donor on fingerprints; greedy
            // beam search misses a donor on unlucky seeds (it does on the
            // raw path too), so require a solid majority rather than all.
            perfect += usize::from(index.knn(id)[0].sim == 1.0);
        }
        assert!(perfect >= 7, "only {perfect}/10 twins navigated to their donors");
    }

    #[test]
    fn to_dataset_round_trips_profiles_and_item_universe() {
        let (ds, graph) = base();
        let mut index = DynamicIndex::new(&ds, graph, config());
        assert_eq!(index.to_dataset(), ds, "no insertions: identical dataset");
        index.add_user(vec![5, 1, 5, 2], 1);
        let grown = index.to_dataset();
        assert_eq!(grown.num_users(), ds.num_users() + 1);
        assert_eq!(grown.num_items(), ds.num_items(), "item universe floor preserved");
        assert_eq!(grown.profile(ds.num_users() as u32), &[1, 2, 5]);
    }

    #[test]
    fn a_growable_base_takes_the_inserts_in_place_once_then_copies() {
        let (ds, graph) = base();
        let ds = ds.into_growable(5, 5 * 300);
        let gf = GoldFinger::build(&ds, 192, 4).into_growable(5);
        let mut index = DynamicIndex::with_goldfinger(&ds, graph, config(), gf.clone());
        for i in 0..5u32 {
            index.add_user(ds.profile(i * 7).iter().map(|&item| item + 1).collect(), i as u64);
        }
        let (grown, words) = (index.to_dataset(), index.to_fingerprints().unwrap());
        assert_eq!(grown.items().as_ptr(), ds.items().as_ptr(), "profiles appended in place");
        assert_eq!(words.words().as_ptr(), gf.words().as_ptr(), "rows appended in place");
        assert_eq!(words.words(), GoldFinger::build(&grown, 192, 4).words());
        // The base's tail is claimed now: a second call copies, equally.
        let (again, words_again) = (index.to_dataset(), index.to_fingerprints().unwrap());
        assert_ne!(again.items().as_ptr(), ds.items().as_ptr());
        assert_eq!((again, words_again.words()), (grown, words.words()));
    }

    #[test]
    fn inserted_user_gets_meaningful_neighbors() {
        let (ds, graph) = base();
        let mut index = DynamicIndex::new(&ds, graph, config());
        // Insert a twin of user 0.
        let twin = ds.profile(0).to_vec();
        let (id, comparisons) = index.add_user(twin, 5);
        assert_eq!(id as usize, ds.num_users());
        assert!(comparisons < ds.num_users(), "insertion cost {comparisons} ≥ linear scan");
        let knn = index.knn(id);
        assert!(!knn.is_empty());
        assert_eq!(knn[0].user, 0, "the twin's best neighbour must be user 0");
        assert_eq!(knn[0].sim, 1.0);
    }

    #[test]
    fn symmetric_update_reaches_existing_users() {
        let (ds, graph) = base();
        let mut index = DynamicIndex::new(&ds, graph, config());
        let twin = ds.profile(7).to_vec();
        let (id, _) = index.add_user(twin, 9);
        // User 7 now has a similarity-1.0 neighbour available: the twin.
        let knn7 = index.knn(7);
        assert!(
            knn7.iter().any(|n| n.user == id && n.sim == 1.0),
            "user 7 did not receive the newcomer as a neighbour: {knn7:?}"
        );
    }

    #[test]
    fn many_insertions_keep_costs_sublinear() {
        let (ds, graph) = base();
        let mut index = DynamicIndex::new(&ds, graph, config());
        let mut total = 0usize;
        for i in 0..50u32 {
            let donor = (i * 7) % 400;
            let mut profile = ds.profile(donor).to_vec();
            profile.push(290 + i % 10); // slight perturbation
            let (_, c) = index.add_user(profile, i as u64);
            total += c;
        }
        assert_eq!(index.inserted_users(), 50);
        assert_eq!(index.num_users(), 450);
        let avg = total / 50;
        assert!(avg < 300, "avg insertion cost {avg} too close to a full scan");
    }

    #[test]
    fn insertion_into_empty_index_works() {
        let ds = Dataset::from_profiles(vec![], 0);
        let graph = KnnGraph::new(0, 5);
        let mut index = DynamicIndex::new(&ds, graph, config());
        let (first, c0) = index.add_user(vec![1, 2, 3], 1);
        assert_eq!(first, 0);
        assert_eq!(c0, 0);
        assert!(index.knn(first).is_empty(), "first user has nobody to connect to");
        let (second, _) = index.add_user(vec![1, 2, 3, 4], 2);
        assert_eq!(index.knn(second)[0].user, first);
        assert!(index.knn(first).iter().any(|n| n.user == second));
    }

    #[test]
    fn duplicate_items_in_new_profile_are_deduplicated() {
        let (ds, graph) = base();
        let mut index = DynamicIndex::new(&ds, graph, config());
        let (id, _) = index.add_user(vec![5, 5, 3, 3, 1], 1);
        assert_eq!(index.profile(id), &[1, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "invalid beam search config")]
    fn invalid_config_rejected() {
        let (ds, graph) = base();
        let bad = BeamSearchConfig { beam_width: 1, ..config() };
        DynamicIndex::new(&ds, graph, bad);
    }

    #[test]
    #[should_panic(expected = "fingerprints must cover the dataset")]
    fn mismatched_fingerprints_rejected() {
        let (ds, graph) = base();
        let tiny = Dataset::from_profiles(vec![vec![1]], 0);
        let gf = GoldFinger::build(&tiny, 64, 1);
        DynamicIndex::with_goldfinger(&ds, graph, config(), gf);
    }
}
