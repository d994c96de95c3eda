package cluster

import "sync"

// Budget is the global retry/hedge budget: a token bucket that earns
// Ratio tokens per primary forward and spends one per hedge or retry, so
// extra attempts can never exceed ~Ratio of the forwarded request rate no
// matter how many peers are down. Without it, a dead owner would turn
// every forward into two attempts and a partition into a retry storm —
// failover amplifying the very overload it is supposed to absorb. Denied
// hedges are not errors: the caller falls back to the local miss path.
//
// The bucket is deterministic (no clocks, no randomness): a fixed request
// sequence yields a fixed admit/deny sequence, which is what lets the
// chaos suite pin the cap exactly.
type Budget struct {
	mu     sync.Mutex
	ratio  float64
	burst  float64
	tokens float64

	requests int64
	granted  int64
	denied   int64
}

// DefaultRetryBudget is the default hedge/retry fraction (10% of
// forwarded requests, the classic retry-budget setting).
const DefaultRetryBudget = 0.10

// DefaultBudgetBurst caps banked tokens: a long quiet stretch may fund a
// short hedge burst, but never an unbounded one.
const DefaultBudgetBurst = 8

// NewBudget creates a budget. ratio <= 0 uses DefaultRetryBudget; burst
// <= 0 uses DefaultBudgetBurst. The bucket starts with one token so the
// very first forward may hedge.
func NewBudget(ratio, burst float64) *Budget {
	if ratio <= 0 {
		ratio = DefaultRetryBudget
	}
	if burst <= 0 {
		burst = DefaultBudgetBurst
	}
	if burst < 1 {
		burst = 1
	}
	return &Budget{ratio: ratio, burst: burst, tokens: 1}
}

// OnRequest banks this primary forward's share of the budget.
func (b *Budget) OnRequest() {
	b.mu.Lock()
	b.requests++
	b.tokens += b.ratio
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.mu.Unlock()
}

// TryHedge spends one token if available; a false return means the hedge
// (or retry) must not be sent and the caller should degrade locally.
func (b *Budget) TryHedge() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens >= 1 {
		b.tokens--
		b.granted++
		return true
	}
	b.denied++
	return false
}

// BudgetSnapshot is the budget's externally visible state.
type BudgetSnapshot struct {
	Ratio    float64 `json:"ratio"`
	Tokens   float64 `json:"tokens"`
	Requests int64   `json:"requests"`
	Granted  int64   `json:"granted"`
	Denied   int64   `json:"denied"`
}

// Snapshot returns the current counters.
func (b *Budget) Snapshot() BudgetSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BudgetSnapshot{Ratio: b.ratio, Tokens: b.tokens, Requests: b.requests, Granted: b.granted, Denied: b.denied}
}
