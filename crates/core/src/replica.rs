//! Per-cluster surrogate replica sets, and the close-set cache whose
//! validity depends on them.
//!
//! [`ReplicaTable`] is the one place a cluster's epoch or active set can
//! change, so it also owns the memoized close cluster sets and purges
//! them in the same call that makes them stale. A close set is a list of
//! clusters measured from one surrogate, so two rules keep every cached
//! set current:
//!
//! * a **cold** change of a cluster ([`ReplicaTable::replace`],
//!   [`ReplicaTable::expire`]) drops the cluster's own set and every set
//!   that lists it, because their measurements came from hosts that no
//!   longer hold the role;
//! * a **warm** handoff ([`ReplicaTable::promote`]) drops nothing: the
//!   content is cluster-level, and relays resolve through the current
//!   primary at pick time.
//!
//! Lookups therefore never validate an entry. The table also keeps each
//! cluster's primary surrogate in a slice, so a close-set build reads
//! primaries without collecting them first.

use std::collections::HashMap;
use std::ops::Index;
use std::sync::Arc;

use asap_cluster::ClusterId;
use asap_workload::HostId;

use crate::close_set::CloseClusterSet;

/// A cluster's bootstrap replica set: the active surrogates serving
/// requests plus warm standbys ready for an epoch-numbered handoff.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicaSet {
    /// Active surrogates (first entry is the primary; large clusters
    /// elect several, §6.3). Never empty once the system holds the set.
    pub active: Vec<HostId>,
    /// Standby surrogates kept warm behind the active set, best first.
    pub standbys: Vec<HostId>,
    /// Epoch number: advanced on every handoff or re-election.
    pub epoch: u64,
}

impl ReplicaSet {
    /// The primary surrogate: the first active one.
    ///
    /// # Panics
    ///
    /// Panics if the active set is empty (the system rejects
    /// such sets).
    pub(crate) fn primary(&self) -> HostId {
        self.active[0]
    }

    /// Every member of the replica set (actives then standbys).
    pub fn members(&self) -> Vec<HostId> {
        self.active
            .iter()
            .chain(self.standbys.iter())
            .copied()
            .collect()
    }

    /// Total replica-set size (actives + standbys).
    pub fn size(&self) -> usize {
        self.active.len() + self.standbys.len()
    }
}

/// A memoized close cluster set.
#[derive(Debug)]
struct CachedCloseSet {
    set: Arc<CloseClusterSet>,
    /// Virtual time the set was built — bounds the stale-close-set rung.
    built_at_ms: u64,
}

/// Every cluster's replica set, indexed by `ClusterId.0`, and the
/// per-cluster close-set cache.
///
/// Epochs and active sets change only through [`ReplicaTable::promote`],
/// [`ReplicaTable::replace`] and [`ReplicaTable::expire`], and the last
/// two purge the cache as they go (see the module docs). Standby lists
/// carry no epoch and are edited freely through
/// [`ReplicaTable::standbys_mut`].
#[derive(Debug, Default)]
pub(crate) struct ReplicaTable {
    sets: Vec<ReplicaSet>,
    /// `sets[c].primary()` for every cluster `c`.
    primaries: Vec<HostId>,
    close_sets: HashMap<ClusterId, CachedCloseSet>,
}

impl ReplicaTable {
    /// A table over freshly elected sets, one per cluster in id order,
    /// with an empty close-set cache.
    ///
    /// # Panics
    ///
    /// Panics if any set's active list is empty.
    pub(crate) fn new(sets: Vec<ReplicaSet>) -> Self {
        let primaries = sets
            .iter()
            .zip(0..)
            .map(|(rs, c)| {
                assert_active(ClusterId(c), rs);
                rs.primary()
            })
            .collect();
        ReplicaTable {
            sets,
            primaries,
            close_sets: HashMap::new(),
        }
    }

    /// The primary surrogate of every cluster, indexed by `ClusterId.0`.
    pub(crate) fn primaries(&self) -> &[HostId] {
        &self.primaries
    }

    /// `cluster`'s standby list (standbys carry no epoch).
    pub(crate) fn standbys_mut(&mut self, cluster: ClusterId) -> &mut Vec<HostId> {
        &mut self.sets[cluster.0 as usize].standbys
    }

    /// Warm handoff: `standby` takes active slot `slot` and leaves the
    /// standby list. The epoch advances; cached close sets stay.
    pub(crate) fn promote(&mut self, cluster: ClusterId, slot: usize, standby: HostId) {
        let rs = &mut self.sets[cluster.0 as usize];
        rs.active[slot] = standby;
        rs.standbys.retain(|&h| h != standby);
        self.advance(cluster);
    }

    /// Cold re-election: `fresh` replaces the set and continues its
    /// epoch sequence (whatever epoch `fresh` carries is overwritten).
    /// Returns the number of cached close sets purged.
    ///
    /// # Panics
    ///
    /// Panics if `fresh` has no active surrogate.
    pub(crate) fn replace(&mut self, cluster: ClusterId, fresh: ReplicaSet) -> u64 {
        assert_active(cluster, &fresh);
        let epoch = self.sets[cluster.0 as usize].epoch;
        self.sets[cluster.0 as usize] = ReplicaSet { epoch, ..fresh };
        self.expire(cluster)
    }

    /// Advances `cluster`'s epoch with its members unchanged, as a cold
    /// change. Returns the number of cached close sets purged.
    pub(crate) fn expire(&mut self, cluster: ClusterId) -> u64 {
        self.advance(cluster);
        let before = self.close_sets.len();
        self.close_sets
            .retain(|&origin, c| origin != cluster && !c.set.contains(cluster));
        (before - self.close_sets.len()) as u64
    }

    fn advance(&mut self, cluster: ClusterId) {
        let c = cluster.0 as usize;
        self.sets[c].epoch += 1;
        self.primaries[c] = self.sets[c].primary();
    }

    /// The cached close set of `cluster`, if any.
    pub(crate) fn close_set(&self, cluster: ClusterId) -> Option<Arc<CloseClusterSet>> {
        self.close_sets.get(&cluster).map(|c| Arc::clone(&c.set))
    }

    /// The cached close set of `cluster` if it was built within
    /// `max_age_ms` of `now_ms` — the bounded-staleness rung of the
    /// degradation ladder.
    pub(crate) fn close_set_within(
        &self,
        cluster: ClusterId,
        now_ms: u64,
        max_age_ms: u64,
    ) -> Option<Arc<CloseClusterSet>> {
        self.close_sets.get(&cluster).and_then(|c| {
            (now_ms.saturating_sub(c.built_at_ms) <= max_age_ms).then(|| Arc::clone(&c.set))
        })
    }

    /// Memoizes `cluster`'s close set, built from the current primaries
    /// at `built_at_ms`.
    pub(crate) fn cache_close_set(
        &mut self,
        cluster: ClusterId,
        set: Arc<CloseClusterSet>,
        built_at_ms: u64,
    ) {
        self.close_sets
            .insert(cluster, CachedCloseSet { set, built_at_ms });
    }
}

/// The table's invariant: every cluster has a primary surrogate.
fn assert_active(cluster: ClusterId, rs: &ReplicaSet) {
    assert!(
        !rs.active.is_empty(),
        "cluster {cluster} has an empty active set"
    );
}

impl Index<ClusterId> for ReplicaTable {
    type Output = ReplicaSet;

    fn index(&self, cluster: ClusterId) -> &ReplicaSet {
        &self.sets[cluster.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::close_set::CloseClusterEntry;
    use asap_rng::check::check;

    fn set(active: &[u32], standbys: &[u32]) -> ReplicaSet {
        ReplicaSet {
            active: active.iter().map(|&h| HostId(h)).collect(),
            standbys: standbys.iter().map(|&h| HostId(h)).collect(),
            epoch: 0,
        }
    }

    #[test]
    fn every_epoch_change_advances_the_epoch_and_primaries_follow() {
        let mut table = ReplicaTable::new(vec![set(&[1], &[2, 3]), set(&[10, 11], &[12])]);
        let (a, b) = (ClusterId(0), ClusterId(1));
        assert_eq!(table.primaries(), &[HostId(1), HostId(10)]);

        table.promote(a, 0, HostId(3));
        assert_eq!(table[a], set(&[3], &[2]).with_epoch(1));

        // A non-primary slot keeps the primary.
        table.promote(b, 1, HostId(12));
        assert_eq!(table.primaries(), &[HostId(3), HostId(10)]);

        table.replace(b, set(&[20], &[]).with_epoch(99));
        assert_eq!(table[b].epoch, 2, "replace continues the epoch sequence");
        assert_eq!(table.primaries()[1], HostId(20));

        table.expire(a);
        assert_eq!(table[a].epoch, 2);

        // Standby edits move no epoch.
        table.standbys_mut(a).push(HostId(4));
        assert_eq!(table[a].epoch, 2);
        assert_eq!(table[a].standbys, vec![HostId(2), HostId(4)]);
    }

    #[test]
    #[should_panic(expected = "cluster C1 has an empty active set")]
    fn new_rejects_an_empty_active_set() {
        ReplicaTable::new(vec![set(&[1], &[]), set(&[], &[2])]);
    }

    #[test]
    #[should_panic(expected = "cluster C0 has an empty active set")]
    fn replace_rejects_an_empty_active_set() {
        let mut table = ReplicaTable::new(vec![set(&[1], &[2])]);
        table.replace(ClusterId(0), set(&[], &[2]));
    }

    impl ReplicaSet {
        fn with_epoch(self, epoch: u64) -> Self {
            ReplicaSet { epoch, ..self }
        }
    }

    /// Cluster `c`'s replica set: primary `10c`, standbys `10c+1, 10c+2`.
    fn replica_set(c: u32) -> ReplicaSet {
        set(&[10 * c], &[10 * c + 1, 10 * c + 2])
    }

    fn entry(cluster: u32) -> CloseClusterEntry {
        CloseClusterEntry {
            cluster: ClusterId(cluster),
            rtt_ms: 30.0,
            loss: 0.001,
            as_hops: 1,
        }
    }

    /// A set holding cluster 2 only.
    fn sample_set() -> Arc<CloseClusterSet> {
        Arc::new(CloseClusterSet::from_entries([entry(2)]))
    }

    #[test]
    fn cache_hits_after_insert() {
        let mut table = ReplicaTable::new((0..3).map(replica_set).collect());
        let origin = ClusterId(1);
        assert!(table.close_set(origin).is_none());
        table.cache_close_set(origin, sample_set(), 5);
        let set = table.close_set(origin).expect("a hit after insert");
        assert!(set.contains(ClusterId(2)));
    }

    #[test]
    fn warm_promote_keeps_entry_cold_changes_purge_it() {
        let mut table = ReplicaTable::new((0..3).map(replica_set).collect());
        let origin = ClusterId(1);
        table.cache_close_set(origin, sample_set(), 0);

        // Warm handoff on cluster 2: the set still serves.
        table.promote(ClusterId(2), 0, HostId(21));
        assert!(table.close_set(origin).is_some());

        // Cold re-election on cluster 2: the set listing it dies.
        assert_eq!(table.replace(ClusterId(2), replica_set(2)), 1);
        assert!(table.close_set(origin).is_none());
        assert_eq!(table.replace(ClusterId(2), replica_set(2)), 0);

        // A cold change of the origin drops its own set.
        table.cache_close_set(origin, sample_set(), 0);
        assert_eq!(table.expire(origin), 1);
        assert!(table.close_set(origin).is_none());
    }

    #[test]
    fn close_set_within_bounds_staleness_by_age() {
        let mut table = ReplicaTable::new((0..3).map(replica_set).collect());
        let origin = ClusterId(1);
        table.cache_close_set(origin, sample_set(), 100);
        assert!(table.close_set_within(origin, 150, 60).is_some());
        assert!(table.close_set_within(origin, 200, 60).is_none());
        assert!(table.close_set_within(origin, 100, 0).is_some());
    }

    /// The cache as it was before invalidation-only: each entry snapshots
    /// the epoch of its origin and of every cluster its set lists, warm
    /// handoffs adopt the new epoch in place, cold changes purge, and
    /// every lookup walks the snapshot against the live epochs.
    #[derive(Default)]
    struct WalkingCache(HashMap<ClusterId, Vec<(ClusterId, u64)>>);

    #[derive(Debug, PartialEq, Eq)]
    enum Outcome {
        Hit,
        Stale,
        Miss,
    }

    impl WalkingCache {
        fn lookup(&mut self, cluster: ClusterId, epoch_of: impl Fn(ClusterId) -> u64) -> Outcome {
            match self.0.get(&cluster) {
                Some(deps) if deps.iter().all(|&(cl, e)| epoch_of(cl) == e) => Outcome::Hit,
                Some(_) => {
                    self.0.remove(&cluster);
                    Outcome::Stale
                }
                None => Outcome::Miss,
            }
        }

        fn insert(
            &mut self,
            cluster: ClusterId,
            set: &CloseClusterSet,
            epoch_of: impl Fn(ClusterId) -> u64,
        ) {
            let deps = std::iter::once(cluster)
                .chain(set.entries().iter().map(|e| e.cluster))
                .map(|c| (c, epoch_of(c)))
                .collect();
            self.0.insert(cluster, deps);
        }

        fn adopt_epoch(&mut self, cluster: ClusterId, epoch: u64) {
            for deps in self.0.values_mut() {
                for dep in deps.iter_mut().filter(|d| d.0 == cluster) {
                    dep.1 = epoch;
                }
            }
        }

        fn purge_referencing(&mut self, cluster: ClusterId) -> u64 {
            let before = self.0.len();
            self.0
                .retain(|_, deps| deps.iter().all(|&(cl, _)| cl != cluster));
            (before - self.0.len()) as u64
        }
    }

    #[test]
    fn invalidation_matches_an_always_walk_cache() {
        const CLUSTERS: u32 = 6;
        let (mut hits, mut misses, mut purged) = (0, 0, 0);
        check(64, |rng| {
            let mut table = ReplicaTable::new((0..CLUSTERS).map(replica_set).collect());
            let mut reference = WalkingCache::default();
            for step in 0..200 {
                let cluster = ClusterId(rng.gen_range(0..CLUSTERS));
                match rng.gen_range(0..4) {
                    0 => {
                        let walked = reference.lookup(cluster, |c| table[c].epoch);
                        let got = match table.close_set(cluster) {
                            Some(_) => Outcome::Hit,
                            None => Outcome::Miss,
                        };
                        assert_eq!(got, walked, "step {step}");
                        if got == Outcome::Hit {
                            hits += 1;
                            continue;
                        }
                        misses += 1;
                        // Up to four entries drawn with replacement: some
                        // sets list a cluster twice, and most stop below a
                        // cluster a later purge asks about, past the end
                        // of their position index.
                        let mut set = CloseClusterSet::default();
                        for _ in 0..rng.gen_range(0..5) {
                            set.push_for_tests(entry(rng.gen_range(0..CLUSTERS)));
                        }
                        reference.insert(cluster, &set, |c| table[c].epoch);
                        table.cache_close_set(cluster, Arc::new(set), 0);
                    }
                    1 => {
                        let (old, standby) = (table[cluster].primary(), table[cluster].standbys[0]);
                        table.promote(cluster, 0, standby);
                        table.standbys_mut(cluster).push(old);
                        reference.adopt_epoch(cluster, table[cluster].epoch);
                    }
                    2 => {
                        let dropped = table.replace(cluster, replica_set(cluster.0));
                        assert_eq!(dropped, reference.purge_referencing(cluster), "step {step}");
                        purged += dropped;
                    }
                    _ => {
                        let dropped = table.expire(cluster);
                        assert_eq!(dropped, reference.purge_referencing(cluster), "step {step}");
                        purged += dropped;
                    }
                }
            }
        });
        assert!(
            hits > 0 && misses > 0 && purged > 0,
            "{hits} {misses} {purged}"
        );
    }
}
