// Package flownet is a stateful fluid-network engine: a fixed set of
// capacitated links and a dynamic population of flows whose transfer rates
// follow max-min fairness (progressive filling), maintained incrementally
// as flows start and complete.
//
// It replaces the from-scratch rate re-solve that internal/sim performed on
// every population change — the pipeline's dominant cost when replaying
// large redistribution fan-outs on the 512/1024-node presets — with three
// cooperating mechanisms:
//
// # Route aggregation (super-flows)
//
// Flows with an identical route and identical rate cap are
// indistinguishable to max-min fairness: progressive filling always
// freezes them together, at the same rate. Start therefore folds such
// flows into one weighted entity (a "super-flow") holding a member count.
// The solver sees one entity consuming weight×rate on each of its links;
// Rate fans the shared per-member rate back out on read. On the
// hierarchical cluster presets a route is fully determined by the
// (source node, destination node) pair — two links inside a cabinet, four
// links (node up, cabinet up, cabinet down, node down) across cabinets —
// so concurrent redistributions that revisit a node pair collapse into one
// solver entity, and the per-(cabinet, cabinet) uplink traffic of a
// fan-out is carried by a bounded set of weighted entities rather than one
// entity per flow.
//
// # Incremental bottleneck repair (merge replay)
//
// Solve keeps the bottleneck level log of the previous solution: the
// ordered sequence of progressive-filling events (a saturated link fixing
// its entities at the fair share, or an entity freezing at its rate cap),
// with nondecreasing rate values, the per-level entity lists (the fix
// log, with each entity's route and weight inlined so recommits stream
// through it) and an undo log. Every time a level drains its links, it
// appends one undo record per distinct link: the link, the level's
// weight on it, and the link's state just before the drain — remaining
// capacity and the weight already fixed on it. A population change
// perturbs only the events that the changed entities and links can
// influence; everything else keeps its rates — literally: entities fixed
// by still-valid levels are not touched at all. Solve proceeds in three
// zones (see mergeReplay):
//
//   - An unchecked prefix, cut by binary search below every changed
//     entity's own fix, every changed link's bottleneck level, and the
//     first level value reaching the changed links' level-0 fair shares
//     (shares only grow as filling progresses, so the level-0 share
//     lower-bounds the pending event). The link state at the cut is
//     rewound, not rebuilt: the weight drift of the changed links is
//     folded into the live unfixed counts, then the suffix's undo
//     records are walked backwards, each restoring its link's remaining
//     capacity and rebasing its unfixed count on the current link weight
//     (current weight minus the recorded fixed weight). The rewind costs
//     one record per link drain the walk is about to redo; the prefix
//     costs nothing.
//
//   - A merge walk over the rest of the log: old levels re-commit as long
//     as they fire before every pending dirty event. A level whose every
//     entry survived drains its links straight from its undo records —
//     the same single multiply-subtract per distinct link that built it,
//     so the bits match — and a level that lost entries re-accumulates
//     the survivors' weights. A level whose bottleneck link went dirty is
//     dropped and its entities join the pending set; when a dirty event
//     fires first — a dirty link's fair share, tracked in a lazy min-heap
//     whose stale keys are valid lower bounds, or a pending entity's rate
//     cap from the pending-cap heap — a fresh level is inserted in place
//     and the links it drains become dirty in turn. Divergence thus
//     cascades exactly as far as it physically reaches, instead of
//     invalidating the whole tail.
//
//   - Plain progressive filling for whatever is still pending once the
//     old log is exhausted, appending to the rebuilt log.
//
// Only caps that can bind enter the pending-cap heap: a cap below the
// smallest capacity on the entity's route. A larger cap can never win the
// strict cap-before-share test, because while the entity is unfixed its
// smallest link's fair share is at most that link's capacity, and that
// link stays a candidate event for as long as the entity is pending. On
// every cluster preset the empirical bandwidth cap β' equals the capacity
// of the route's narrowest link (WMax/RTT stays above it), so no replay
// cap binds and the heap stays empty; the oracle tests perturb caps to
// exercise it.
//
// Solve falls back to a full solve when no trusted log exists (first
// solve, after a small-population scratch solve, or after a defensive
// freeze of stalled entities) or when at least half the solvable
// entities changed.
//
// # Lazy fluid draining and the deadline index
//
// Members of an entity always share one rate, so their completion order
// within the entity is fixed at arrival time: each member records its
// virtual finish volume (its transfer volume plus the entity's cumulative
// drained volume at join), and the entity keeps a min-heap of members by
// that static key. Advancing virtual time adds rate·dt to one per-entity
// accumulator instead of decrementing every member. Completions are
// indexed by a deadline heap keyed by (absolute time, entity id) with one
// entry per draining entity and a position index, so a change re-keys the
// entity's entry in place and an entity that stops draining leaves the
// heap at once. An entity's next-completion time stays exact while its
// rate and head member are unchanged (draining is linear), so only
// entities touched by a solve or a completion are re-keyed, and finding
// work is O(log entities) per event rather than a scan of the whole
// population. The heap only schedules which entities are examined — the
// drained-state test against the eagerly accumulated volumes stays
// authoritative.
//
// The solved rates are exactly the max-min fair point of the underlying
// per-flow population (the aggregation is lossless and the repair exact up
// to floating-point association); internal/sim keeps its from-scratch
// MaxMin solver as the reference oracle, and the randomized tests in this
// package assert agreement within 1e-9 against it across add/remove
// sequences on the paper's and the production-scale topologies, with
// SetSelfCheck verifying every rewind against a from-capacity replay of
// the retained log, bit for bit.
//
// A Net is not safe for concurrent use; simulations are single-threaded
// and the experiment harness parallelizes across independent engines.
package flownet
