package groupcommit

import (
	"slices"
	"testing"
)

// harness runs Loop over a queue of ints with a land that reports every
// batch on landed and then blocks until the test sends on release, so a
// test decides what is queued while a landing is in flight. Nothing here
// sleeps or reads a clock: every assertion is an ordering of channel
// operations.
type harness struct {
	queue   chan int
	landed  chan []int
	release chan struct{}
	done    chan struct{}
}

func start(t *testing.T, capacity, max int) *harness {
	t.Helper()
	h := &harness{
		queue:   make(chan int, capacity),
		landed:  make(chan []int),
		release: make(chan struct{}),
		done:    make(chan struct{}),
	}
	go func() {
		defer close(h.done)
		Loop(h.queue, max, func(batch []int) {
			if len(batch) == 0 {
				t.Error("land called with an empty batch")
			}
			h.landed <- slices.Clone(batch) // Loop reuses the slice
			<-h.release
		})
	}()
	return h
}

// next waits for the next landing to begin and returns its batch; the
// landing stays blocked until finish.
func (h *harness) next() []int { return <-h.landed }

func (h *harness) finish() { h.release <- struct{}{} }

// stop closes the queue, lets every remaining landing through, and
// returns them once Loop has returned.
func (h *harness) stop() [][]int {
	close(h.queue)
	var rest [][]int
	for {
		select {
		case b := <-h.landed:
			rest = append(rest, b)
			h.finish()
		case <-h.done:
			return rest
		}
	}
}

// A lone item is landed without anything else happening: the landing of
// item 1 is observed before item 2 is even sent. A loop that waited for
// company or for a timer would deadlock here instead of passing slowly.
func TestLoneItemLandsBeforeTheNextIsSent(t *testing.T) {
	h := start(t, 8, 8)
	h.queue <- 1
	if got := h.next(); !slices.Equal(got, []int{1}) {
		t.Fatalf("first landing = %v, want [1]", got)
	}
	h.finish()
	h.queue <- 2
	if got := h.next(); !slices.Equal(got, []int{2}) {
		t.Fatalf("second landing = %v, want [2]", got)
	}
	h.finish()
	if rest := h.stop(); len(rest) != 0 {
		t.Fatalf("landings after close of an empty queue: %v", rest)
	}
}

// Items queued while land is blocked are the next batch, whole and in
// send order.
func TestItemsQueuedDuringALandingAreTheNextBatch(t *testing.T) {
	h := start(t, 8, 8)
	h.queue <- 1
	if got := h.next(); !slices.Equal(got, []int{1}) {
		t.Fatalf("first landing = %v, want [1]", got)
	}
	for i := 2; i <= 5; i++ {
		h.queue <- i // buffered: none of these waits for the landing
	}
	h.finish()
	if got := h.next(); !slices.Equal(got, []int{2, 3, 4, 5}) {
		t.Fatalf("second landing = %v, want [2 3 4 5]", got)
	}
	h.finish()
	if rest := h.stop(); len(rest) != 0 {
		t.Fatalf("landings after close of an empty queue: %v", rest)
	}
}

// max splits a backlog longer than it, keeping order across the split.
func TestMaxSplitsABacklog(t *testing.T) {
	h := start(t, 8, 3)
	h.queue <- 0
	h.next()
	for i := 1; i <= 7; i++ {
		h.queue <- i
	}
	h.finish()
	for _, want := range [][]int{{1, 2, 3}, {4, 5, 6}, {7}} {
		if got := h.next(); !slices.Equal(got, want) {
			t.Fatalf("landing = %v, want %v", got, want)
		}
		h.finish()
	}
	h.stop()
}

// Closing the queue lands what it still holds — including items queued
// behind a landing in flight — and only then does Loop return.
func TestCloseLandsWhatIsHeldAndReturns(t *testing.T) {
	h := start(t, 8, 2)
	h.queue <- 1
	h.next()
	for i := 2; i <= 4; i++ {
		h.queue <- i
	}
	close(h.queue)
	h.finish()
	var rest [][]int
	for range 2 {
		rest = append(rest, h.next())
		h.finish()
	}
	<-h.done
	if want := [][]int{{2, 3}, {4}}; !slices.EqualFunc(rest, want, slices.Equal[[]int]) {
		t.Fatalf("landings after close = %v, want %v", rest, want)
	}
}

// A queue closed before anything was sent never reaches land.
func TestCloseOfAnEmptyQueueLandsNothing(t *testing.T) {
	h := start(t, 1, 1)
	if rest := h.stop(); len(rest) != 0 {
		t.Fatalf("landings = %v, want none", rest)
	}
}
