//! Per-cluster surrogate replica sets and the table that owns them.
//!
//! [`ReplicaTable`] is the one place a cluster's epoch or active set can
//! change. Every such change advances a table-wide *generation*, and the
//! table keeps each cluster's primary surrogate in a slice. The
//! close-set cache leans on both: an entry verified at the current
//! generation is still epoch-fresh without walking its dependencies, and
//! a close-set build reads primaries without collecting them first.

use std::ops::Index;

use asap_cluster::ClusterId;
use asap_workload::HostId;

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

/// Every cluster's replica set, indexed by `ClusterId.0`.
///
/// Epochs and active sets change only through [`ReplicaTable::promote`],
/// [`ReplicaTable::replace`] and [`ReplicaTable::expire`], and each of
/// them advances [`ReplicaTable::generation`]. So two reads of the
/// generation that agree prove that no epoch changed in between.
/// Standby lists carry no epoch and are edited freely through
/// [`ReplicaTable::standbys_mut`].
#[derive(Debug, Default)]
pub(crate) struct ReplicaTable {
    sets: Vec<ReplicaSet>,
    /// `sets[c].primary()` for every cluster `c`.
    primaries: Vec<HostId>,
    generation: u64,
}

impl ReplicaTable {
    /// A table over freshly elected sets, one per cluster in id order.
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
            generation: 0,
        }
    }

    /// Number of clusters.
    pub(crate) fn len(&self) -> usize {
        self.sets.len()
    }

    /// The primary surrogate of every cluster, indexed by `ClusterId.0`.
    pub(crate) fn primaries(&self) -> &[HostId] {
        &self.primaries
    }

    /// Advances on every epoch change of any cluster.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// `cluster`'s standby list (standbys carry no epoch).
    pub(crate) fn standbys_mut(&mut self, cluster: ClusterId) -> &mut Vec<HostId> {
        &mut self.sets[cluster.0 as usize].standbys
    }

    /// Warm handoff: `standby` takes active slot `slot` and leaves the
    /// standby list. Returns the new epoch.
    pub(crate) fn promote(&mut self, cluster: ClusterId, slot: usize, standby: HostId) -> u64 {
        let rs = &mut self.sets[cluster.0 as usize];
        rs.active[slot] = standby;
        rs.standbys.retain(|&h| h != standby);
        self.advance(cluster)
    }

    /// Cold re-election: `fresh` replaces the set and continues its
    /// epoch sequence (whatever epoch `fresh` carries is overwritten).
    ///
    /// # Panics
    ///
    /// Panics if `fresh` has no active surrogate.
    pub(crate) fn replace(&mut self, cluster: ClusterId, fresh: ReplicaSet) {
        assert_active(cluster, &fresh);
        let epoch = self.sets[cluster.0 as usize].epoch;
        self.sets[cluster.0 as usize] = ReplicaSet { epoch, ..fresh };
        self.advance(cluster);
    }

    /// Advances `cluster`'s epoch with its members unchanged.
    pub(crate) fn expire(&mut self, cluster: ClusterId) {
        self.advance(cluster);
    }

    fn advance(&mut self, cluster: ClusterId) -> u64 {
        let c = cluster.0 as usize;
        self.sets[c].epoch += 1;
        self.primaries[c] = self.sets[c].primary();
        self.generation += 1;
        self.sets[c].epoch
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

    fn set(active: &[u32], standbys: &[u32]) -> ReplicaSet {
        ReplicaSet {
            active: active.iter().map(|&h| HostId(h)).collect(),
            standbys: standbys.iter().map(|&h| HostId(h)).collect(),
            epoch: 0,
        }
    }

    #[test]
    fn every_epoch_change_advances_the_generation_and_primaries_follow() {
        let mut table = ReplicaTable::new(vec![set(&[1], &[2, 3]), set(&[10, 11], &[12])]);
        let (a, b) = (ClusterId(0), ClusterId(1));
        assert_eq!(table.primaries(), &[HostId(1), HostId(10)]);
        assert_eq!(table.generation(), 0);

        assert_eq!(table.promote(a, 0, HostId(3)), 1);
        assert_eq!(table[a], set(&[3], &[2]).with_epoch(1));
        assert_eq!(table.generation(), 1);

        // A non-primary slot keeps the primary.
        table.promote(b, 1, HostId(12));
        assert_eq!(table.primaries(), &[HostId(3), HostId(10)]);

        table.replace(b, set(&[20], &[]).with_epoch(99));
        assert_eq!(table[b].epoch, 2, "replace continues the epoch sequence");
        assert_eq!(table.primaries()[1], HostId(20));

        table.expire(a);
        assert_eq!(table[a].epoch, 2);
        assert_eq!(table.generation(), 4);

        // Standby edits move neither epochs nor the generation.
        table.standbys_mut(a).push(HostId(4));
        assert_eq!(table.generation(), 4);
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
}
