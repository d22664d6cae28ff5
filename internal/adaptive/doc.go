// Package adaptive is the sequential-analysis replication controller:
// it decides, cell by cell, when a measurement is precise enough to stop
// replicating. The paper's discipline is that a mean is only meaningful
// with a confidence interval tight enough to support the claim made of
// it — this package turns that discipline into a scheduling policy. A
// fixed rows x replicates budget over-measures stable cells and
// under-measures noisy ones; the controller instead runs a minimum
// number of replicates, then keeps replicating a cell only while the
// relative half-width of its running confidence interval exceeds a
// target, up to a hard maximum.
//
// Cells the regression gate flagged — or whose running interval drifts
// off a stored baseline mid-run — are held to a tighter target and
// scheduled ahead of the rest: spend the hardware where the doubt is.
//
// The scheduler (internal/sched) is its one user: set
// sched.Options.Controller to a Controller and the worker pool asks it,
// at every batch boundary of a cell, how many replicates the cell should
// reach. The scheduler's package comment states the cell-key and
// determinism contracts the two keep.
//
// Concurrency contract: a Controller's methods are safe for concurrent
// use (one mutex guards per-cell state); the scheduler's workers report
// observations and request decisions from multiple goroutines.
// Decisions are taken only at batch boundaries on values stored in
// replicate order, so the per-cell budget is deterministic regardless of
// worker count or completion order.
//
// Durability contract: none — controller state is in-memory and
// per-run. Replicates already persisted in the run store re-enter a
// resumed controller as replayed observations and count against the
// cell's budget, so durability stays where it belongs, in
// runstore.Store.
package adaptive
