package server

import (
	"errors"
	"fmt"
	"time"
)

// ErrQueueFull rejects a Submit when the admission queue is at capacity.
// Admission control sheds the query immediately instead of blocking, so a
// client can retry or back off.
var ErrQueueFull = errors.New("server: admission queue full")

// ErrServerClosed rejects a Submit after Close.
var ErrServerClosed = errors.New("server: closed")

// ErrBudgetExceeded is matched (via errors.Is) by every *BudgetError.
var ErrBudgetExceeded = errors.New("server: query budget exceeded")

// ErrExpiredInQueue is matched (via errors.Is) by every
// *QueueExpiredError.
var ErrExpiredInQueue = errors.New("server: query expired in queue")

// BudgetError reports an admission-time rejection: the query asked for
// more of one resource than the server allows per query.
type BudgetError struct {
	// Resource names the capped dimension: "flips", "samples", "memory".
	Resource string
	// Requested is what the (canonicalized) query asked for.
	Requested int64
	// Limit is the configured per-query cap.
	Limit int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("server: query %s budget %d exceeds per-query limit %d", e.Resource, e.Requested, e.Limit)
}

// Is makes every BudgetError match the ErrBudgetExceeded sentinel.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExceeded }

// QueueExpiredError reports that a query's context was done while it was
// still waiting in the admission queue — it never started executing.
type QueueExpiredError struct {
	// Waited is how long the query sat in the queue before expiring.
	Waited time.Duration
	// Cause is context.Cause(ctx) at expiry.
	Cause error
}

func (e *QueueExpiredError) Error() string {
	return fmt.Sprintf("server: query expired after %v in queue: %v", e.Waited, e.Cause)
}

// Is makes every QueueExpiredError match the ErrExpiredInQueue sentinel.
func (e *QueueExpiredError) Is(target error) bool { return target == ErrExpiredInQueue }

// Unwrap exposes the context cause (context.Canceled or
// context.DeadlineExceeded) to errors.Is chains.
func (e *QueueExpiredError) Unwrap() error { return e.Cause }
