// Package groupcommit is the one batching loop in this repository: the
// scheduler's persist stage (internal/sched) and the collector daemon's
// per-shard committer (internal/collector) both land what producers
// queue for them with it.
//
// The pacing is the landing itself. While land is busy making one batch
// durable, producers keep queueing; whatever queued in that time is the
// next batch. There is no timer and no target size: a lone item is
// landed at once, and a backlog is landed in as few syncs as max allows.
package groupcommit

// Loop lands everything sent on queue, in send order, until queue is
// closed: it waits for one item, adds without waiting what is already
// queued behind it (at most max items in all), calls land, and repeats.
// Closing queue lands what is still queued and returns. land is never
// called with an empty batch, and must not keep the slice — Loop reuses
// it for the next batch.
func Loop[T any](queue <-chan T, max int, land func(batch []T)) {
	var batch []T
	for first := range queue {
		batch = append(batch, first)
	drain:
		for len(batch) < max {
			select {
			case item, ok := <-queue:
				if !ok {
					break drain
				}
				batch = append(batch, item)
			default:
				break drain
			}
		}
		land(batch)
		clear(batch) // drop the references until the slots are reused
		batch = batch[:0]
	}
}
