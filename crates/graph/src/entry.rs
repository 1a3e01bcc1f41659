//! The entry index: where a search of the graph starts.
//!
//! The paper's argument against greedy KNN algorithms is their **random
//! start** — "nodes are initially connected to dissimilar neighbors" and
//! must first wade through spurious candidates before converging (§II-D).
//! C² removes it from the *build* with FastRandomHash pre-clustering; this
//! module removes it from the *query*: Step 1 already decides, for each of
//! the `t` hash functions, which cluster a profile belongs to (bucket
//! `H(u)`, then the `H\η` descent through recursive splits), so the split
//! tree it walks is recorded ([`SplitTree`]) and frozen next to the
//! clusters as a flat, immutable [`EntryIndex`]. A query profile is routed
//! through the same `t` functions and its beam is seeded with members of
//! the clusters it lands in — users that share its minimum-hash items —
//! instead of users drawn at random: those who share the most of the
//! smaller half of its clusters first (`cnc_query`'s `pick_seeds`).
//!
//! Layout (flat arrays, so a snapshot section can hold them verbatim and a
//! mapped file can lend them out in place):
//!
//! * `seeds[f]`, `b` — the `t` generative hash functions
//!   (`SeededHash::new(seed).hash_range(item, b)`, exactly
//!   `FastRandomHash::item_hash`);
//! * `keys` / `targets` — the routing table, sorted by key. A key is
//!   `(parent node, η)`; parent `f < t` is the root of function `f`,
//!   parents `≥ t` are clusters that were split. A target is a final
//!   cluster id, or (high bit set) the node of a cluster that was split
//!   again. `η = 0` is never a hash value (`h(i) ∈ ⟦1, b⟧`), so
//!   `(node, 0)` addresses the node's *remainder* — the users the split
//!   left behind;
//! * `offsets` / `members` — the cluster member arrays, CSR: the one
//!   record of the plan's clusters, which `cnc_core`'s `ClusterCache`
//!   shares instead of keeping a copy.
//!
//! Routing mirrors `cnc_core::clustering::split_recursive` exactly,
//! including its two exceptions (`H\η` undefined → stays; alone in the new
//! group → folded into the remainder): an in-sample profile routes to
//! precisely the `t` clusters Step 1 put that user in.

use cnc_dataset::{ItemId, Storage, UserId};
use cnc_similarity::SeededHash;

/// Target flag: the entry points at a split node, not a final cluster.
const NODE: u32 = 1 << 31;

#[inline]
fn key(parent: u32, eta: u32) -> u64 {
    (parent as u64) << 32 | eta as u64
}

/// The split tree of one Step-1 run, recorded while it happens: one entry
/// per final cluster and one per split (~12 bytes each). Final clusters
/// are named by their position in the run's cluster list.
#[derive(Clone, Debug, Default)]
pub struct SplitTree {
    functions: u32,
    splits: u32,
    routes: Vec<(u64, u32)>,
}

impl SplitTree {
    /// An empty tree over `functions` hash functions; function `f`'s root
    /// node is `f`.
    pub fn new(functions: usize) -> Self {
        SplitTree { functions: functions as u32, splits: 0, routes: Vec::new() }
    }

    /// Users of `parent` hashing to `eta` form final cluster `cluster`.
    pub fn leaf(&mut self, parent: u32, eta: u32, cluster: usize) {
        debug_assert!(eta >= 1, "η = 0 addresses a remainder");
        self.routes.push((key(parent, eta), Self::cluster_id(cluster)));
    }

    /// Users of `parent` hashing to `eta` form a cluster that is split
    /// again; returns the node its groups hang off.
    pub fn split(&mut self, parent: u32, eta: u32) -> u32 {
        let node = self.functions + self.splits;
        assert!(node < NODE, "split tree outgrew its 31-bit node ids");
        self.splits += 1;
        self.routes.push((key(parent, eta), node | NODE));
        node
    }

    /// The users split node `node` left behind form final cluster
    /// `cluster`.
    pub fn remainder(&mut self, node: u32, cluster: usize) {
        self.routes.push((key(node, 0), Self::cluster_id(cluster)));
    }

    fn cluster_id(cluster: usize) -> u32 {
        let id = u32::try_from(cluster).ok().filter(|&id| id < NODE);
        id.expect("split tree outgrew its 31-bit cluster ids")
    }
}

/// The frozen entry index (module docs). `EntryIndex::default()` routes
/// nowhere: every search seeded through it starts at random users.
#[derive(Clone, Debug)]
pub struct EntryIndex {
    b: u32,
    seeds: Vec<u64>,
    keys: Storage<u64>,
    targets: Storage<u32>,
    offsets: Storage<u32>,
    members: Storage<UserId>,
    /// One past the largest member id (0 when there are no members).
    user_bound: usize,
}

impl Default for EntryIndex {
    fn default() -> Self {
        EntryIndex {
            b: 1,
            seeds: Vec::new(),
            keys: Storage::default(),
            targets: Storage::default(),
            offsets: vec![0].into(),
            members: Storage::default(),
            user_bound: 0,
        }
    }
}

impl EntryIndex {
    /// Freezes a recorded split tree over the clusters it names.
    /// `seeds[f]` and `b` identify the hash functions Step 1 ran with. A
    /// tree without routes (the MinHash ablation records none) yields an
    /// index that routes nowhere but still holds the clusters: the index is
    /// the one record of a plan's clusters, which the incremental build
    /// reads back as well.
    ///
    /// # Panics
    /// Panics if the clusters hold more than `u32::MAX` member slots.
    pub fn build(b: u32, seeds: &[u64], tree: &SplitTree, clusters: &[Vec<UserId>]) -> Self {
        let total: usize = clusters.iter().map(Vec::len).sum();
        assert!(u32::try_from(total).is_ok(), "entry index holds at most u32::MAX member slots");
        let mut offsets = Vec::with_capacity(clusters.len() + 1);
        let mut members = Vec::with_capacity(total);
        offsets.push(0u32);
        for cluster in clusters {
            members.extend_from_slice(cluster);
            offsets.push(members.len() as u32);
        }
        let user_bound = members.iter().max().map_or(0, |&u| u as usize + 1);
        let mut index = EntryIndex {
            offsets: offsets.into(),
            members: members.into(),
            user_bound,
            ..EntryIndex::default()
        };
        if !tree.routes.is_empty() {
            assert_eq!(seeds.len(), tree.functions as usize, "one seed per hash function");
            let mut routes = tree.routes.clone();
            routes.sort_unstable_by_key(|&(key, _)| key);
            let (keys, targets): (Vec<u64>, Vec<u32>) = routes.into_iter().unzip();
            (index.b, index.seeds) = (b, seeds.to_vec());
            (index.keys, index.targets) = (keys.into(), targets.into());
        }
        index
    }

    /// Assembles an index from stored (frozen or mapped) arrays — the
    /// snapshot loaders' entry point, and the one validator of a persisted
    /// member CSR. The parts come from an untrusted file, so everything
    /// routing, seeding and the incremental build rely on is checked here,
    /// in streaming passes with no allocation: the table strictly sorted
    /// and pointing only at existing clusters or non-root nodes, remainders
    /// pointing at clusters, offsets monotone and covering the members
    /// exactly, member ids below `num_users`.
    pub fn from_storage(
        b: u32,
        seeds: Vec<u64>,
        keys: Storage<u64>,
        targets: Storage<u32>,
        offsets: Storage<u32>,
        members: Storage<UserId>,
        num_users: usize,
    ) -> Result<EntryIndex, String> {
        if b == 0 {
            return Err("hash range b must be positive".into());
        }
        if keys.len() != targets.len() {
            return Err(format!("{} routing keys for {} targets", keys.len(), targets.len()));
        }
        let Some((&first, rest)) = offsets.split_first() else {
            return Err("cluster offsets must hold at least the leading 0".into());
        };
        if first != 0 {
            return Err("cluster offsets must start at 0".into());
        }
        let mut at = 0u32;
        for (c, &end) in rest.iter().enumerate() {
            if end < at {
                return Err(format!("cluster offsets decrease at cluster {c}"));
            }
            at = end;
        }
        if at as usize != members.len() {
            return Err(format!("cluster offsets cover {at} of {} members", members.len()));
        }
        let functions = seeds.len() as u64;
        for (i, (&k, &target)) in keys.iter().zip(targets.iter()).enumerate() {
            if i > 0 && keys[i - 1] >= k {
                return Err(format!("routing table is not strictly sorted at entry {i}"));
            }
            let valid = if target & NODE == 0 {
                (target as usize) < rest.len()
            } else {
                // A remainder is a final cluster, and no route leads back
                // to a function's root.
                k as u32 != 0 && (target & !NODE) as u64 >= functions
            };
            if !valid {
                return Err(format!("routing entry {i} has an invalid target {target:#x}"));
            }
        }
        let user_bound = members.iter().max().map_or(0, |&u| u as usize + 1);
        if user_bound > num_users {
            return Err(format!("member {} outside the {num_users} users", user_bound - 1));
        }
        Ok(EntryIndex { b, seeds, keys, targets, offsets, members, user_bound })
    }

    /// True if the index routes nowhere (no routing entries). It may still
    /// hold clusters: the MinHash scheme records no split tree.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The hash range `b` of the functions.
    pub fn b(&self) -> u32 {
        self.b
    }

    /// The seeds of the `t` hash functions.
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// The sorted routing keys.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The routing targets, aligned with [`EntryIndex::keys`].
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// The cluster offsets into [`EntryIndex::members`] (`clusters + 1`).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Every cluster's members, concatenated.
    pub fn members(&self) -> &[UserId] {
        &self.members
    }

    /// Number of clusters the index can route to.
    pub fn num_clusters(&self) -> usize {
        self.offsets.len() - 1
    }

    /// One past the largest member id: the index fits any graph with at
    /// least this many users.
    pub fn user_bound(&self) -> usize {
        self.user_bound
    }

    /// The members of cluster `cluster`.
    #[inline]
    pub fn cluster(&self, cluster: u32) -> &[UserId] {
        let c = cluster as usize;
        &self.members[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }

    /// True when the member array borrows a mapped snapshot file (see
    /// [`Storage::is_mapped`]).
    pub fn is_mapped(&self) -> bool {
        self.members.is_mapped()
    }

    #[inline]
    fn lookup(&self, parent: u32, eta: u32) -> Option<u32> {
        self.keys.binary_search(&key(parent, eta)).ok().map(|i| self.targets[i])
    }

    /// Routes `profile` through the `t` hash functions: `clusters`
    /// receives, in function order, the cluster the profile belongs to
    /// under each function that can place it (at most `t` ids; none for an
    /// empty profile or an empty index). `hashes` is scratch.
    pub fn route(&self, profile: &[ItemId], hashes: &mut Vec<u32>, clusters: &mut Vec<u32>) {
        clusters.clear();
        if profile.is_empty() {
            return;
        }
        for (f, &seed) in self.seeds.iter().enumerate() {
            let hash = SeededHash::new(seed);
            hashes.clear();
            hashes.extend(profile.iter().map(|&item| hash.hash_range(item, self.b)));
            // H(u), then one H\η step per split level. η strictly grows,
            // so the descent ends within b steps whatever the table holds.
            let mut parent = f as u32;
            let mut eta = hashes.iter().copied().min().expect("profile is non-empty");
            let cluster = loop {
                let Some(target) = self.lookup(parent, eta) else {
                    // No such group below a split: the user would have
                    // been alone there and stays in the remainder. An
                    // unseen bucket at the root places the profile nowhere.
                    break if parent as usize >= self.seeds.len() {
                        self.lookup(parent, 0)
                    } else {
                        None
                    };
                };
                if target & NODE == 0 {
                    break Some(target);
                }
                parent = target & !NODE;
                match hashes.iter().copied().filter(|&h| h > eta).min() {
                    // H\η undefined: the user stays in the remainder.
                    None => break self.lookup(parent, 0),
                    Some(h) => eta = h,
                }
            };
            clusters.extend(cluster);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two functions over b = 8. Function 0: bucket 2 → cluster 0, bucket
    /// 3 split into {5 → cluster 1, remainder → cluster 2}. Function 1:
    /// bucket 1 → cluster 3.
    fn sample() -> (SplitTree, Vec<Vec<UserId>>) {
        let mut tree = SplitTree::new(2);
        tree.leaf(0, 2, 0);
        let node = tree.split(0, 3);
        tree.leaf(node, 5, 1);
        tree.remainder(node, 2);
        tree.leaf(1, 1, 3);
        (tree, vec![vec![0, 1], vec![2, 3], vec![4], vec![0, 1, 2, 3, 4]])
    }

    #[test]
    fn build_flattens_clusters_and_sorts_the_table() {
        let (tree, clusters) = sample();
        let index = EntryIndex::build(8, &[11, 12], &tree, &clusters);
        assert_eq!(index.num_clusters(), 4);
        assert_eq!(index.cluster(1), &[2, 3]);
        assert_eq!(index.cluster(3), &[0, 1, 2, 3, 4]);
        assert_eq!(index.user_bound(), 5);
        assert!(index.keys().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(index.lookup(0, 2), Some(0));
        assert_eq!(index.lookup(2, 5), Some(1), "first split node is id t = 2");
        assert_eq!(index.lookup(2, 0), Some(2));
        assert_eq!(index.lookup(0, 4), None);
    }

    #[test]
    fn empty_tree_routes_nowhere_but_keeps_the_clusters() {
        let index = EntryIndex::build(8, &[11], &SplitTree::default(), &[vec![1, 2], vec![0]]);
        assert!(index.is_empty());
        assert!(index.seeds().is_empty(), "an index without routes hashes nothing");
        assert_eq!(index.num_clusters(), 2);
        assert_eq!((index.cluster(0), index.cluster(1)), (&[1, 2][..], &[0][..]));
        assert_eq!(index.user_bound(), 3);
        let (mut hashes, mut out) = (Vec::new(), vec![9]);
        index.route(&[1, 2, 3], &mut hashes, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn from_storage_round_trips_and_rejects_corrupt_parts() {
        let (tree, clusters) = sample();
        let index = EntryIndex::build(8, &[11, 12], &tree, &clusters);
        let parts = |i: &EntryIndex| {
            (i.keys().to_vec(), i.targets().to_vec(), i.offsets().to_vec(), i.members().to_vec())
        };
        let check = |keys: Vec<u64>, targets: Vec<u32>, offsets: Vec<u32>, members: Vec<u32>| {
            EntryIndex::from_storage(
                8,
                vec![11, 12],
                keys.into(),
                targets.into(),
                offsets.into(),
                members.into(),
                5,
            )
        };
        let (keys, targets, offsets, members) = parts(&index);
        let back = check(keys.clone(), targets.clone(), offsets.clone(), members.clone()).unwrap();
        assert_eq!(parts(&back), parts(&index));
        assert_eq!(back.user_bound(), 5);

        let mut unsorted = keys.clone();
        unsorted.swap(0, 1);
        assert!(check(unsorted, targets.clone(), offsets.clone(), members.clone()).is_err());
        let mut dangling = targets.clone();
        dangling[0] = 4; // cluster 4 does not exist
        assert!(check(keys.clone(), dangling, offsets.clone(), members.clone()).is_err());
        let mut to_root = targets.clone();
        to_root[1] = NODE | 1; // a route back to function 1's root
        assert!(check(keys.clone(), to_root, offsets.clone(), members.clone()).is_err());
        let mut ragged = offsets.clone();
        ragged[1] = 9;
        assert!(check(keys.clone(), targets.clone(), ragged, members.clone()).is_err());
        let mut stranger = members.clone();
        stranger[0] = 5; // user 5 of 5
        assert!(check(keys.clone(), targets.clone(), offsets.clone(), stranger).is_err());
        assert!(check(keys[1..].to_vec(), targets, offsets, members).is_err());
    }

    #[test]
    fn remainder_targets_must_be_clusters() {
        let mut tree = SplitTree::new(1);
        let node = tree.split(0, 1);
        tree.remainder(node, 0);
        let index = EntryIndex::build(4, &[7], &tree, &[vec![0]]);
        let mut targets = index.targets().to_vec();
        let at = index.keys().iter().position(|&k| k == key(node, 0)).unwrap();
        targets[at] = NODE | node;
        let got = EntryIndex::from_storage(
            4,
            vec![7],
            index.keys().to_vec().into(),
            targets.into(),
            index.offsets().to_vec().into(),
            index.members().to_vec().into(),
            1,
        );
        assert!(got.is_err(), "routing reads a remainder's target as a cluster id");
    }
}
