//! Work-stealing policy and machine topology knobs.
//!
//! Section 4.2 of the paper describes the stealing behaviour the runtime
//! layers on top of the affinity hints: idle processors steal; task-affinity
//! sets are stolen as a set; object-affinity tasks should preferably not be
//! stolen. Section 6.3 adds *cluster stealing* — an idle processor first (or
//! only) steals from processors within its own cluster so stolen tasks keep
//! referencing the destination object in local memory — controlled in the
//! paper by a runtime flag the programmer can manipulate dynamically.
//!
//! The paper evaluates on DASH's fixed 2-level machine (processors grouped
//! into clusters sharing a memory). Modern machines nest deeper — SMT pairs
//! inside cores inside chiplets inside sockets — so [`Topology`] generalizes
//! the cluster model to an N-level tree: each level groups a fixed number of
//! consecutive processors into a *domain*, domains nest, and one designated
//! level (the *memory level*) plays the role of the paper's cluster. Victim
//! scan orders widen domain by domain — nearest common ancestor first — and
//! [`StealPolicy`] gains a per-level radius and a politeness knob that widens
//! the steal domain one level per failed scan, in the spirit of the
//! bubble-scheduler line of work (Thibault et al.). A 2-level machine remains
//! a special case with byte-identical scan orders.
//!
//! [`StealPolicy::scan`] is the one steal scan: both runtimes call it with a
//! closure that robs one victim queue, and keep only their own mechanism
//! (locks or virtual clocks, steal costs, trace events).

use crate::affinity::AffinityKind;
use crate::feedback::PolicyFeedback;
use crate::ids::{ClusterId, ProcId};
use crate::obs::ObsEvent;
use crate::queues::StolenBatch;
use crate::stats::SchedStats;

/// Maximum explicit levels in a machine tree (the implicit machine root sits
/// above the outermost one). Four levels model e.g. SMT pair → core cluster →
/// chiplet → socket.
pub const MAX_TOPO_LEVELS: usize = 4;

/// Machine topology as seen by the scheduler: an N-level tree of processor
/// groupings.
///
/// Level `l` (innermost first) groups `level_size(l)` consecutive processors
/// into a domain; sizes strictly increase and each divides the next, so
/// domains nest. One level — [`Topology::mem_level`] — is the *cluster*
/// level: the domains that share a local memory (the paper's DASH clusters).
/// The machine root sits implicitly above the outermost explicit level, at
/// level index [`Topology::nlevels`].
///
/// The classic 2-level DASH machine is [`Topology::clustered`]: one explicit
/// level (the cluster) under the root.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Topology {
    /// Number of server processes (one per processor).
    pub nservers: usize,
    /// Domain sizes per explicit level, innermost first; unused entries 1.
    levels: [usize; MAX_TOPO_LEVELS],
    /// Explicit levels in use.
    nlevels: u8,
    /// The level whose domains share a local memory.
    mem_level: u8,
}

impl Topology {
    /// A flat machine: every processor is its own cluster.
    pub fn flat(nservers: usize) -> Self {
        Self::clustered(nservers, 1)
    }

    /// DASH-like topology: clusters of `procs_per_cluster` processors.
    pub fn clustered(nservers: usize, procs_per_cluster: usize) -> Self {
        Self::tree(nservers, &[procs_per_cluster], 0)
    }

    /// An N-level tree. `level_sizes` are domain sizes innermost-first, each
    /// strictly larger than and divisible by the previous; `mem_level`
    /// designates which level's domains share a local memory. The processor
    /// count does not need to fill the tree — the last domain of any level
    /// may be ragged, exactly like the classic partial last cluster.
    pub fn tree(nservers: usize, level_sizes: &[usize], mem_level: usize) -> Self {
        assert!(
            !level_sizes.is_empty() && level_sizes.len() <= MAX_TOPO_LEVELS,
            "1..={MAX_TOPO_LEVELS} levels, got {}",
            level_sizes.len()
        );
        assert!(mem_level < level_sizes.len(), "mem_level out of range");
        let mut levels = [1usize; MAX_TOPO_LEVELS];
        for (l, &s) in level_sizes.iter().enumerate() {
            assert!(s > 0, "level sizes must be positive");
            if l > 0 {
                assert!(
                    s > level_sizes[l - 1] && s % level_sizes[l - 1] == 0,
                    "level sizes must strictly increase and nest: {level_sizes:?}"
                );
            }
            levels[l] = s;
        }
        Topology {
            nservers,
            levels,
            nlevels: level_sizes.len() as u8,
            mem_level: mem_level as u8,
        }
    }

    /// Explicit levels in the tree (the root above them is level `nlevels`).
    #[inline]
    pub fn nlevels(&self) -> usize {
        self.nlevels as usize
    }

    /// The level whose domains share a local memory (the paper's cluster).
    #[inline]
    pub fn mem_level(&self) -> usize {
        self.mem_level as usize
    }

    /// Domain size (processors per domain) at explicit level `l`.
    #[inline]
    pub fn level_size(&self, l: usize) -> usize {
        assert!(l < self.nlevels as usize);
        self.levels[l]
    }

    /// The domain sizes of all explicit levels, innermost first.
    pub fn level_sizes(&self) -> &[usize] {
        &self.levels[..self.nlevels as usize]
    }

    /// Processors per cluster (domain size at the memory level).
    #[inline]
    pub fn procs_per_cluster(&self) -> usize {
        self.levels[self.mem_level as usize]
    }

    /// The domain index of processor `p` at explicit level `l`.
    #[inline]
    pub fn domain_of(&self, p: ProcId, l: usize) -> usize {
        p.index() / self.levels[l]
    }

    /// Number of domains at explicit level `l` (last may be ragged).
    pub fn ndomains(&self, l: usize) -> usize {
        assert!(l < self.nlevels as usize);
        self.nservers.div_ceil(self.levels[l])
    }

    /// The cluster (memory-level domain) a processor belongs to.
    #[inline]
    pub fn cluster_of(&self, p: ProcId) -> ClusterId {
        ClusterId(p.index() / self.levels[self.mem_level as usize])
    }

    /// Number of clusters (last one may be partially populated).
    pub fn nclusters(&self) -> usize {
        self.nservers.div_ceil(self.levels[self.mem_level as usize])
    }

    /// Are two processors in the same cluster (sharing a local memory)?
    #[inline]
    pub fn same_cluster(&self, a: ProcId, b: ProcId) -> bool {
        self.cluster_of(a) == self.cluster_of(b)
    }

    /// The innermost explicit level at which `a` and `b` share a domain, or
    /// `nlevels` (the machine root) if they share none. Level 0 means the
    /// two processors are nearest neighbours; larger is farther apart.
    #[inline]
    pub fn common_level(&self, a: ProcId, b: ProcId) -> usize {
        for l in 0..self.nlevels as usize {
            if a.index() / self.levels[l] == b.index() / self.levels[l] {
                return l;
            }
        }
        self.nlevels as usize
    }

    /// Victim scan order for a thief: nearest domains first (common-ancestor
    /// level ascending), each bucket in round-robin order starting after the
    /// thief. On a 2-level machine this is exactly "same-cluster processors
    /// first, then remote" — byte-identical to the original order. A
    /// deterministic order keeps the simulation reproducible.
    pub fn steal_order(&self, thief: ProcId) -> Vec<ProcId> {
        self.order_with_levels(thief)
            .into_iter()
            .map(|(v, _)| v)
            .collect()
    }

    /// As [`Topology::steal_order`], with each victim's common-ancestor
    /// level attached.
    fn order_with_levels(&self, thief: ProcId) -> Vec<(ProcId, u8)> {
        let nl = self.nlevels as usize;
        let mut buckets: Vec<Vec<(ProcId, u8)>> = vec![Vec::new(); nl + 1];
        for k in 1..self.nservers {
            let v = ProcId((thief.index() + k) % self.nservers);
            let lvl = self.common_level(thief, v);
            buckets[lvl].push((v, lvl as u8));
        }
        buckets.concat()
    }

    /// Precompute every thief's victim order (see [`VictimOrders`]).
    pub fn victim_orders(&self) -> VictimOrders {
        VictimOrders::new(self)
    }
}

/// Precomputed victim scan orders for every thief.
///
/// [`Topology::steal_order`] allocates a fresh vector per call, and it sits
/// on the idle/steal hot path — every failed scan rebuilt the same order.
/// This table builds each order once; entries carry the victim together with
/// its common-ancestor level so level-widening policies need no per-probe
/// recomputation.
#[derive(Clone, Debug, Default)]
pub struct VictimOrders {
    /// All thieves' orders, concatenated; thief `t` owns
    /// `entries[t * stride .. (t + 1) * stride]`.
    entries: Vec<(ProcId, u8)>,
    /// Victims per thief (`nservers − 1`).
    stride: usize,
}

impl VictimOrders {
    /// Build the table for `topo` (O(nservers²) once, at runtime startup).
    pub fn new(topo: &Topology) -> Self {
        let stride = topo.nservers.saturating_sub(1);
        let mut entries = Vec::with_capacity(stride * topo.nservers);
        for t in 0..topo.nservers {
            entries.extend(topo.order_with_levels(ProcId(t)));
        }
        VictimOrders { entries, stride }
    }

    /// The scan order for `thief`: `(victim, common-ancestor level)` pairs,
    /// nearest domains first.
    #[inline]
    pub fn order(&self, thief: ProcId) -> &[(ProcId, u8)] {
        let s = thief.index() * self.stride;
        &self.entries[s..s + self.stride]
    }
}

/// Steal-policy configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StealPolicy {
    /// Master switch: disable stealing entirely (used by the round-robin
    /// "Base" versions in the case studies, which rely on even initial
    /// placement alone).
    pub enabled: bool,
    /// Thieves avoid tasks collocated with objects (OBJECT affinity).
    pub avoid_object_affinity: bool,
    /// Steal task-affinity sets as a whole (Section 4.2: "tasks scheduled
    /// with task-affinity can be stolen as a set ... and still benefit from
    /// cache locality"). When false, thieves take a single task even from
    /// affinity slots — the ablation shows the cache-reuse cost.
    pub steal_whole_sets: bool,
    /// Restrict stealing to processors within the thief's cluster, so stolen
    /// tasks still reference the destination object in local memory
    /// (the `Distr+Aff+ClusterStealing` experiment of Section 6.3).
    pub cluster_only: bool,
    /// After this many consecutive failed scans an idle server performs a
    /// last-resort steal ignoring `avoid_object_affinity`, guaranteeing
    /// progress (locality boundaries — `cluster_only`, `steal_radius` — stay
    /// strict; `polite_widening` widens itself as scans fail).
    pub last_resort_after: usize,
    /// Topology-aware generalization of `cluster_only`: victims whose common
    /// ancestor with the thief is more than this many levels above the
    /// cluster level are never stolen from. `Some(0)` is equivalent to
    /// `cluster_only`; `None` leaves the machine unrestricted.
    pub steal_radius: Option<usize>,
    /// Widen the steal domain politely, one topology level per consecutive
    /// failed scan: the first scan probes only nearest-neighbour domains,
    /// the next admits one level further out, and so on to the machine root.
    pub polite_widening: bool,
}

impl Default for StealPolicy {
    fn default() -> Self {
        StealPolicy {
            enabled: true,
            avoid_object_affinity: true,
            steal_whole_sets: true,
            cluster_only: false,
            last_resort_after: 2,
            steal_radius: None,
            polite_widening: false,
        }
    }
}

impl StealPolicy {
    /// A compact, stable fingerprint of the policy knobs, used in the
    /// `cool-repro` memoization key. Topology-aware knobs append segments
    /// only when set, so classic policies keep their historical fingerprint.
    pub fn fingerprint(&self) -> String {
        let mut s = format!(
            "steal={} avoid={} sets={} cluster={} lr={}",
            u8::from(self.enabled),
            u8::from(self.avoid_object_affinity),
            u8::from(self.steal_whole_sets),
            u8::from(self.cluster_only),
            self.last_resort_after,
        );
        if let Some(r) = self.steal_radius {
            s.push_str(&format!(" rad={r}"));
        }
        if self.polite_widening {
            s.push_str(" widen=1");
        }
        s
    }

    /// No stealing at all.
    pub fn disabled() -> Self {
        StealPolicy {
            enabled: false,
            ..Self::default()
        }
    }

    /// Default stealing with the cluster-only restriction enabled.
    pub fn cluster_only() -> Self {
        StealPolicy {
            cluster_only: true,
            ..Self::default()
        }
    }

    /// Default stealing bounded to `radius` levels above the cluster level
    /// (`with_radius(0)` is [`StealPolicy::cluster_only`] by another name;
    /// `with_radius(1)` allows the enclosing socket, and so on).
    pub fn with_radius(radius: usize) -> Self {
        StealPolicy {
            steal_radius: Some(radius),
            ..Self::default()
        }
    }

    /// Default stealing with polite level-by-level widening.
    pub fn widening() -> Self {
        StealPolicy {
            polite_widening: true,
            ..Self::default()
        }
    }

    /// The highest common-ancestor level a thief may currently steal across:
    /// victims with [`Topology::common_level`] above this are skipped
    /// (without even a probe, exactly like the original `cluster_only`
    /// check). `cluster_only` pins the ceiling at the memory level and
    /// `steal_radius` at `mem_level + radius` — both strict, desperation
    /// never lifts a locality boundary. `polite_widening` starts the ceiling
    /// at level 0 and raises it one level per consecutive failed scan.
    #[inline]
    pub fn allowed_level(&self, topo: &Topology, failed_scans: usize) -> usize {
        let mut ceiling = usize::MAX;
        if self.cluster_only {
            ceiling = topo.mem_level();
        }
        if let Some(r) = self.steal_radius {
            ceiling = ceiling.min(topo.mem_level().saturating_add(r));
        }
        if self.polite_widening {
            ceiling = ceiling.min(failed_scans);
        }
        ceiling
    }

    /// One steal scan by an idle server: the stealing policy both runtimes
    /// run, with the victim queues left to the caller.
    ///
    /// Walks `order` (the thief's [`VictimOrders::order`]) nearest first,
    /// skipping victims above the ceiling without a probe. The ceiling is
    /// [`StealPolicy::allowed_level`] lifted by the feedback's
    /// [`PolicyFeedback::extra_levels`]; the feedback's
    /// [`PolicyFeedback::probe_cap`] bounds the probes. Each probe calls
    /// `try_steal(victim, avoid_object, whole_sets)`. After
    /// `last_resort_after` consecutive failed scans the thief is
    /// *desperate*: object-affinity avoidance is waived, the ceiling is not
    /// (stolen tasks must keep their objects in cluster-local memory, §6.3).
    /// The first batch ends the scan. The scan notes its outcome in the
    /// feedback and resets or bumps `failed_scans`; counting it into
    /// [`SchedStats`] is left to [`ScanOutcome::record`], so a threaded
    /// caller takes its stats lock only after every victim lock is released.
    pub fn scan<T>(
        &self,
        topo: &Topology,
        order: &[(ProcId, u8)],
        failed_scans: &mut usize,
        feedback: Option<&mut PolicyFeedback>,
        mut try_steal: impl FnMut(ProcId, bool, bool) -> Option<StolenBatch<T>>,
    ) -> ScanOutcome<T> {
        let desperate = *failed_scans >= self.last_resort_after;
        let avoid_object = self.avoid_object_affinity && !desperate;
        let mut allowed = self.allowed_level(topo, *failed_scans);
        let mut probe_cap = usize::MAX;
        if let Some(fb) = &feedback {
            allowed = allowed.saturating_add(fb.extra_levels());
            probe_cap = fb.probe_cap();
        }
        let mut out = ScanOutcome {
            probes: 0,
            desperate,
            stolen: None,
        };
        for &(victim, lvl) in order {
            let level = lvl as usize;
            if level > allowed {
                continue;
            }
            if out.probes >= probe_cap {
                break;
            }
            out.probes += 1;
            if let Some(batch) = try_steal(victim, avoid_object, self.steal_whole_sets) {
                // A stolen set re-queues as Task (its collocation is already
                // broken); a single task as None.
                let kind = if batch.token.is_some() {
                    AffinityKind::Task
                } else {
                    AffinityKind::None
                };
                out.stolen = Some(Steal {
                    victim,
                    level,
                    remote: level > topo.mem_level(),
                    batch,
                    kind,
                });
                break;
            }
        }
        if let Some(fb) = feedback {
            fb.note_scan(out.stolen.is_none());
        }
        *failed_scans = if out.stolen.is_some() {
            0
        } else {
            *failed_scans + 1
        };
        out
    }
}

/// A successful steal: where the batch came from and how the thief queues it.
#[derive(Debug)]
pub struct Steal<T> {
    /// The server the batch was taken from.
    pub victim: ProcId,
    /// The thief–victim common-ancestor level ([`Topology::common_level`]).
    pub level: usize,
    /// The victim sits outside the thief's cluster (above the memory level).
    pub(crate) remote: bool,
    /// The stolen tasks.
    pub batch: StolenBatch<T>,
    /// The class to re-queue the batch under: `Task` for a whole set, `None`
    /// for a single task.
    pub kind: AffinityKind,
}

/// What one [`StealPolicy::scan`] did.
#[derive(Debug)]
pub struct ScanOutcome<T> {
    /// Victims probed; a runtime charges its steal cost per probe.
    pub probes: usize,
    /// The scan was a last resort (object-affinity avoidance waived).
    pub(crate) desperate: bool,
    /// The steal, or `None` when every probe came back empty.
    pub stolen: Option<Steal<T>>,
}

impl<T> ScanOutcome<T> {
    /// Count the scan into `stats`: the stolen tasks and set, a remote or
    /// desperate steal and its level bucket on success, a failed steal
    /// otherwise.
    pub fn record(&self, stats: &mut SchedStats) {
        let Some(s) = &self.stolen else {
            stats.failed_steals += 1;
            return;
        };
        stats.tasks_stolen += s.batch.tasks.len() as u64;
        if s.batch.token.is_some() {
            stats.sets_stolen += 1;
        }
        if s.remote {
            stats.remote_steals += 1;
        }
        if self.desperate {
            stats.desperate_steals += 1;
        }
        stats.steals_by_level[s.level] += 1;
    }

    /// The scan's trace event for `thief`, stamped with the caller's `time`.
    pub fn event(&self, thief: ProcId, time: u64) -> ObsEvent {
        match &self.stolen {
            Some(s) => ObsEvent::StealSuccess {
                thief,
                victim: s.victim,
                token: s.batch.token,
                ntasks: s.batch.tasks.len(),
                time,
            },
            None => ObsEvent::StealFail {
                thief,
                probes: self.probes,
                time,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::AdaptiveConfig;
    use crate::ids::ObjRef;

    #[test]
    fn clusters_partition_processors() {
        let t = Topology::clustered(32, 4);
        assert_eq!(t.nclusters(), 8);
        assert_eq!(t.cluster_of(ProcId(0)), ClusterId(0));
        assert_eq!(t.cluster_of(ProcId(3)), ClusterId(0));
        assert_eq!(t.cluster_of(ProcId(4)), ClusterId(1));
        assert_eq!(t.cluster_of(ProcId(31)), ClusterId(7));
        assert!(t.same_cluster(ProcId(4), ProcId(7)));
        assert!(!t.same_cluster(ProcId(3), ProcId(4)));
    }

    #[test]
    fn flat_topology_has_singleton_clusters() {
        let t = Topology::flat(5);
        assert_eq!(t.nclusters(), 5);
        assert!(!t.same_cluster(ProcId(0), ProcId(1)));
    }

    #[test]
    fn steal_order_visits_everyone_once_cluster_first() {
        let t = Topology::clustered(8, 4);
        let order = t.steal_order(ProcId(1));
        assert_eq!(order.len(), 7);
        // First the rest of cluster 0 ...
        assert_eq!(&order[..3], &[ProcId(2), ProcId(3), ProcId(0)]);
        // ... then cluster 1.
        assert!(order[3..].iter().all(|p| p.index() >= 4));
        let mut sorted: Vec<usize> = order.iter().map(|p| p.index()).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn partial_last_cluster_is_counted() {
        let t = Topology::clustered(10, 4);
        assert_eq!(t.nclusters(), 3);
        assert_eq!(t.cluster_of(ProcId(9)), ClusterId(2));
    }

    #[test]
    fn deep_tree_levels_nest() {
        // SMT pairs → 8-proc chiplets (memory) → 32-proc sockets, 64 procs.
        let t = Topology::tree(64, &[2, 8, 32], 1);
        assert_eq!(t.nlevels(), 3);
        assert_eq!(t.mem_level(), 1);
        assert_eq!(t.procs_per_cluster(), 8);
        assert_eq!(t.nclusters(), 8);
        assert_eq!(t.ndomains(0), 32);
        assert_eq!(t.ndomains(2), 2);
        assert_eq!(t.common_level(ProcId(0), ProcId(1)), 0); // SMT pair
        assert_eq!(t.common_level(ProcId(0), ProcId(2)), 1); // same chiplet
        assert_eq!(t.common_level(ProcId(0), ProcId(8)), 2); // same socket
        assert_eq!(t.common_level(ProcId(0), ProcId(32)), 3); // machine root
        assert!(t.same_cluster(ProcId(0), ProcId(7)));
        assert!(!t.same_cluster(ProcId(7), ProcId(8)));
    }

    #[test]
    fn deep_steal_order_widens_nearest_first() {
        let t = Topology::tree(16, &[2, 4, 8], 1);
        let order = t.steal_order(ProcId(5));
        assert_eq!(order.len(), 15);
        // SMT sibling first, then the rest of the 4-proc chiplet, then the
        // other chiplet of the 8-proc socket, then the far socket.
        assert_eq!(order[0], ProcId(4));
        let lv: Vec<usize> = order.iter().map(|&v| t.common_level(ProcId(5), v)).collect();
        assert!(lv.windows(2).all(|w| w[0] <= w[1]), "levels ascend: {lv:?}");
        let mut sorted: Vec<usize> = order.iter().map(|p| p.index()).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).filter(|&i| i != 5).collect::<Vec<_>>());
    }

    #[test]
    fn victim_orders_match_steal_order() {
        for topo in [
            Topology::clustered(10, 4),
            Topology::flat(3),
            Topology::tree(24, &[2, 8], 1),
        ] {
            let orders = topo.victim_orders();
            for t in 0..topo.nservers {
                let thief = ProcId(t);
                let fresh = topo.steal_order(thief);
                let pre: Vec<ProcId> = orders.order(thief).iter().map(|&(v, _)| v).collect();
                assert_eq!(pre, fresh, "thief {t}");
                for &(v, lvl) in orders.order(thief) {
                    assert_eq!(lvl as usize, topo.common_level(thief, v));
                }
            }
        }
    }

    #[test]
    fn allowed_level_reproduces_cluster_only_and_widens() {
        let t2 = Topology::clustered(8, 4);
        let deep = Topology::tree(64, &[2, 8, 32], 1);
        let dflt = StealPolicy::default();
        assert_eq!(dflt.allowed_level(&t2, 0), usize::MAX);
        let co = StealPolicy::cluster_only();
        // Strict at every desperation stage: cluster boundary never lifts.
        assert_eq!(co.allowed_level(&t2, 0), 0);
        assert_eq!(co.allowed_level(&t2, 99), 0);
        assert_eq!(co.allowed_level(&deep, 99), 1);
        let sock = StealPolicy::with_radius(1);
        assert_eq!(sock.allowed_level(&deep, 99), 2);
        let widen = StealPolicy::widening();
        assert_eq!(widen.allowed_level(&deep, 0), 0);
        assert_eq!(widen.allowed_level(&deep, 2), 2);
        assert_eq!(widen.allowed_level(&deep, 9), 9);
    }

    /// A tree's victims by level from thief 0: 1 SMT sibling (level 0), 6
    /// more in the 8-processor cluster, 24 more in the socket, 32 beyond.
    fn deep() -> Topology {
        Topology::tree(64, &[2, 8, 32], 1)
    }

    type Probe = (ProcId, bool, bool);

    /// One scan by thief 0 of [`deep`] against a scripted `try_steal`: the
    /// `rich` victims hold a batch (three tasks under a token, else one),
    /// the rest are empty. Returns the outcome and every probe as
    /// `(victim, avoid_object, whole_sets)`.
    fn scan_deep(
        policy: StealPolicy,
        failed_scans: &mut usize,
        feedback: Option<&mut PolicyFeedback>,
        rich: &[(usize, Option<ObjRef>)],
    ) -> (ScanOutcome<u32>, Vec<Probe>) {
        let topo = deep();
        let orders = topo.victim_orders();
        let mut probes = Vec::new();
        let out = policy.scan(
            &topo,
            orders.order(ProcId(0)),
            failed_scans,
            feedback,
            |v, avoid, whole| {
                probes.push((v, avoid, whole));
                let &(_, token) = rich.iter().find(|&&(r, _)| r == v.index())?;
                let tasks = if token.is_some() {
                    vec![7, 8, 9]
                } else {
                    vec![7]
                };
                Some(StolenBatch { token, tasks })
            },
        );
        (out, probes)
    }

    fn adaptive(probe_base: u32, probe_per_depth: u32) -> AdaptiveConfig {
        AdaptiveConfig {
            window: 1,
            widen_fail_permille: 500,
            migrate_remote_permille: 0,
            probe_base,
            probe_per_depth,
        }
    }

    #[test]
    fn scan_skips_levels_above_the_ceiling_without_probing() {
        let mut failed = 0;
        let (out, probes) = scan_deep(StealPolicy::cluster_only(), &mut failed, None, &[]);
        assert_eq!(out.probes, 7);
        assert_eq!(probes.len(), 7);
        let far = |&(v, _, _): &Probe| deep().common_level(ProcId(0), v) > 1;
        assert!(!probes.iter().any(far));
        assert!(out.stolen.is_none());
        assert_eq!(failed, 1);
        // A set beyond the radius stays where it is.
        let rich = [(40, Some(ObjRef(1)))];
        let (out, _) = scan_deep(StealPolicy::with_radius(1), &mut 0, None, &rich);
        assert_eq!(out.probes, 31);
        assert!(out.stolen.is_none());
    }

    #[test]
    fn polite_widening_raises_the_ceiling_per_failed_scan() {
        let mut failed = 0;
        let mut scan = || scan_deep(StealPolicy::widening(), &mut failed, None, &[]).0;
        let probes: Vec<usize> = (0..5).map(|_| scan().probes).collect();
        assert_eq!(probes, [1, 7, 31, 63, 63]);
        assert_eq!(failed, 5);
    }

    #[test]
    fn feedback_extra_levels_lift_the_ceiling() {
        let co = StealPolicy::cluster_only();
        let mut fb = PolicyFeedback::new(adaptive(0, 0), 3);
        let mut failed = 0;
        let (out, _) = scan_deep(co, &mut failed, Some(&mut fb), &[]);
        assert_eq!(out.probes, 7);
        // The scan noted its failure: the window it closes is starved.
        assert!(fb.note_task(0, 0, 0));
        assert_eq!(fb.extra_levels(), 1);
        let (out, _) = scan_deep(co, &mut failed, Some(&mut fb), &[]);
        assert_eq!(out.probes, 31);
        assert!(fb.note_task(0, 0, 0));
        assert_eq!(fb.extra_levels(), 2);
        // A successful scan is noted too, and the widening decays.
        let rich = [(9, None)];
        let (out, _) = scan_deep(co, &mut failed, Some(&mut fb), &rich);
        assert_eq!(out.stolen.map(|s| s.level), Some(2));
        assert!(!fb.note_task(0, 0, 0));
        assert_eq!(fb.extra_levels(), 1);
    }

    #[test]
    fn probe_cap_stops_the_scan() {
        let mut fb = PolicyFeedback::new(adaptive(2, 1), 3);
        fb.note_task(0, 0, 1);
        assert_eq!(fb.probe_cap(), 3);
        // Victim 8 is eighth in thief 0's order: past the cap.
        let rich = [(8, Some(ObjRef(1)))];
        let (out, probes) = scan_deep(StealPolicy::default(), &mut 0, Some(&mut fb), &rich);
        assert_eq!((out.probes, probes.len()), (3, 3));
        assert!(out.stolen.is_none());
    }

    #[test]
    fn desperation_lifts_object_avoidance_not_the_ceiling() {
        let policy = StealPolicy::cluster_only();
        assert_eq!(policy.last_resort_after, 2);
        let mut failed = 0;
        for avoid in [true, true, false, false] {
            let (out, probes) = scan_deep(policy, &mut failed, None, &[]);
            assert_eq!(out.probes, 7, "the cluster boundary holds");
            assert_eq!(out.desperate, !avoid);
            assert!(probes.iter().all(|&(_, a, whole)| a == avoid && whole));
        }
        let mut stats = SchedStats::default();
        let (out, _) = scan_deep(policy, &mut failed, None, &[(3, None)]);
        out.record(&mut stats);
        // Victim 3 shares the thief's cluster: not a remote steal.
        assert_eq!(
            (stats.desperate_steals, stats.remote_steals, failed),
            (1, 0, 0)
        );
        // Without whole-set stealing the flag reaches every probe.
        let singles = StealPolicy {
            steal_whole_sets: false,
            ..policy
        };
        let (_, probes) = scan_deep(singles, &mut 0, None, &[]);
        assert!(probes.iter().all(|&(_, avoid, whole)| avoid && !whole));
    }

    #[test]
    fn steals_are_classified_and_counted_by_level() {
        let policy = StealPolicy::default();
        let mut stats = SchedStats::default();
        let mut failed = 1;
        let (set, _) = scan_deep(policy, &mut failed, None, &[(8, Some(ObjRef(5)))]);
        assert_eq!(failed, 0);
        let s = set.stolen.as_ref().expect("victim 8 holds a set");
        assert_eq!(
            (s.victim, s.level, s.remote, s.kind),
            (ProcId(8), 2, true, AffinityKind::Task)
        );
        set.record(&mut stats);
        let (single, _) = scan_deep(policy, &mut failed, None, &[(1, None), (8, None)]);
        let s = single.stolen.as_ref().expect("victim 1 holds a task");
        assert_eq!(
            (s.victim, s.level, s.remote, s.kind),
            (ProcId(1), 0, false, AffinityKind::None)
        );
        single.record(&mut stats);
        let (miss, _) = scan_deep(policy, &mut failed, None, &[]);
        assert_eq!(miss.probes, 63);
        miss.record(&mut stats);
        assert_eq!(failed, 1);
        let mut want = SchedStats {
            tasks_stolen: 4,
            sets_stolen: 1,
            remote_steals: 1,
            failed_steals: 1,
            ..SchedStats::default()
        };
        want.steals_by_level[0] = 1;
        want.steals_by_level[2] = 1;
        assert_eq!(stats, want);
    }

    #[test]
    fn classic_policy_fingerprints_are_unchanged() {
        assert_eq!(
            StealPolicy::default().fingerprint(),
            "steal=1 avoid=1 sets=1 cluster=0 lr=2"
        );
        assert_eq!(
            StealPolicy::cluster_only().fingerprint(),
            "steal=1 avoid=1 sets=1 cluster=1 lr=2"
        );
        // Topology-aware knobs append — they never collide with classic.
        assert_eq!(
            StealPolicy::with_radius(1).fingerprint(),
            "steal=1 avoid=1 sets=1 cluster=0 lr=2 rad=1"
        );
        assert_eq!(
            StealPolicy::widening().fingerprint(),
            "steal=1 avoid=1 sets=1 cluster=0 lr=2 widen=1"
        );
    }
}
