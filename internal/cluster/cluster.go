package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterizes a Cluster.
type Config struct {
	// Self is this replica's own entry in Peers (its advertised base URL).
	Self string
	// Peers is the full static membership, including Self. Every replica
	// must be configured with the same set (order does not matter) so all
	// replicas compute the same consistent-hash ring.
	Peers []string
	// VNodes is the virtual-node count per peer (default DefaultVNodes).
	VNodes int
	// HedgeDelay is how long a forwarded cold query waits on the owner
	// before launching a second attempt at the next replica on the ring
	// (default 50ms). The loser is canceled.
	HedgeDelay time.Duration
	// RetryBudget bounds hedges+retries to this fraction of forwarded
	// requests (default DefaultRetryBudget); BudgetBurst caps banked
	// budget (default DefaultBudgetBurst).
	RetryBudget float64
	BudgetBurst float64
	// ShareQueue bounds cold results waiting to be gossiped to peers;
	// excess shares are dropped, never queued unboundedly (default 64).
	ShareQueue int
	// ShareTimeout bounds one peer's share delivery (default 2s).
	ShareTimeout time.Duration
	// Health parameterizes the peer health machine.
	Health HealthConfig
	// Transport speaks to peers (default: HTTPTransport with a 5s call
	// timeout). Tests inject fakes.
	Transport Transport
	// Clock drives hedge timers (default: the real clock; Health has its
	// own, normally the same instance).
	Clock Clock
	// Logf, when non-nil, receives one line per peer state change of note.
	Logf func(format string, args ...any)
}

// Cluster wires the ring, the health machine, the budget and the
// transport into the two operations the serving layer needs: Forward (a
// hedged, budgeted cold-query forward to the cell's owner) and ShareAsync
// (gossiping a locally simulated cell to the other replicas).
type Cluster struct {
	cfg    Config
	ring   *Ring
	health *Health
	budget *Budget
	tr     Transport
	clock  Clock

	forwards         atomic.Int64 // forward attempts routed to an owner
	forwardErrors    atomic.Int64 // forwards where every attempt failed
	hedges           atomic.Int64 // secondary attempts actually launched
	hedgeWins        atomic.Int64 // forwards won by the secondary attempt
	ownerUnavailable atomic.Int64 // forwards refused: owner suspect/dead
	sharesSent       atomic.Int64
	shareErrors      atomic.Int64
	sharesDropped    atomic.Int64

	shareCh  chan []byte
	baseCtx  context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	started  atomic.Bool
	stopOnce sync.Once
}

// Forward outcomes that are not transport errors.
var (
	// ErrSelfOwned: the key is owned locally; the caller should answer it
	// through its own ladder (and share the result).
	ErrSelfOwned = errors.New("cluster: key owned by this replica")
	// ErrOwnerUnavailable: the owner is suspect or dead; the caller should
	// answer locally rather than burn a forward on a peer that is
	// already failing its heartbeats.
	ErrOwnerUnavailable = errors.New("cluster: owner suspect or dead, answer locally")
)

// New validates the membership and builds the cluster. The background
// heartbeat and share loops start with Start.
func New(cfg Config) (*Cluster, error) {
	ring, err := NewRing(cfg.Peers, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	selfKnown := false
	others := make([]string, 0, len(cfg.Peers)-1)
	for _, p := range ring.Peers() {
		if p == cfg.Self {
			selfKnown = true
			continue
		}
		others = append(others, p)
	}
	if !selfKnown {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list %v", cfg.Self, ring.Peers())
	}
	if cfg.HedgeDelay <= 0 {
		cfg.HedgeDelay = 50 * time.Millisecond
	}
	if cfg.ShareQueue <= 0 {
		cfg.ShareQueue = 64
	}
	if cfg.ShareTimeout <= 0 {
		cfg.ShareTimeout = 2 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock()
	}
	if cfg.Health.Clock == nil {
		cfg.Health.Clock = cfg.Clock
	}
	if cfg.Transport == nil {
		cfg.Transport = NewHTTPTransport(0)
	}
	c := &Cluster{
		cfg:     cfg,
		ring:    ring,
		budget:  NewBudget(cfg.RetryBudget, cfg.BudgetBurst),
		tr:      cfg.Transport,
		clock:   cfg.Clock,
		shareCh: make(chan []byte, cfg.ShareQueue),
	}
	c.health = NewHealth(others, func(ctx context.Context, peer string) error {
		return c.tr.Ping(ctx, peer)
	}, cfg.Health)
	// The cluster's background loops outlive any request; Close cancels
	// them. (No ctxplumb suppression needed: the constructor receives no
	// context, so a fresh root is legitimate here.)
	c.baseCtx, c.cancel = context.WithCancel(context.Background())
	return c, nil
}

// Self returns this replica's identity.
func (c *Cluster) Self() string { return c.cfg.Self }

// Peers returns the sorted full membership (including self).
func (c *Cluster) Peers() []string { return c.ring.Peers() }

// Health exposes the peer health machine (tests drive ProbeOnce on it).
func (c *Cluster) HealthTracker() *Health { return c.health }

// Route returns the owner of key and whether that owner is this replica.
func (c *Cluster) Route(key string) (owner string, self bool) {
	owner = c.ring.Owner(key)
	return owner, owner == c.cfg.Self
}

// Start launches the heartbeat prober and the share-delivery loop.
func (c *Cluster) Start() {
	if !c.started.CompareAndSwap(false, true) {
		return
	}
	c.wg.Add(2)
	//collsel:goroutine heartbeat loop, canceled by Close and joined via c.wg
	go func() {
		defer c.wg.Done()
		for {
			select {
			case <-c.baseCtx.Done():
				return
			case <-c.clock.After(c.cfg.Health.Interval):
				c.health.ProbeOnce(c.baseCtx)
			}
		}
	}()
	//collsel:goroutine share-delivery loop, canceled by Close and joined via c.wg
	go func() {
		defer c.wg.Done()
		for {
			select {
			case <-c.baseCtx.Done():
				return
			case payload := <-c.shareCh:
				c.deliverShare(payload)
			}
		}
	}()
}

// Close stops the background loops and waits for them. Idempotent; safe
// to call on a never-started cluster.
func (c *Cluster) Close() {
	c.stopOnce.Do(c.cancel)
	c.wg.Wait()
}

// attempt is one forward attempt's outcome.
type attempt struct {
	peer   string
	status int
	body   []byte
	err    error
	hedged bool
}

// Result is a won forward: the owning (or hedged) peer's verbatim /select
// response body.
type Result struct {
	Peer     string
	Body     []byte
	HedgeWin bool
}

// Forward routes one cold query to the owner of key, hedging to the next
// alive replica on the ring after HedgeDelay (or immediately, as a retry,
// when the owner's attempt fails fast) — both secondary forms draw from
// the same global budget. The first 200 wins and the loser's attempt is
// canceled. Any terminal error means "answer locally": the caller's miss
// path is the fallback of last resort and is always available.
func (c *Cluster) Forward(ctx context.Context, key, collective string, procs, msgBytes int) (Result, error) {
	owner := c.ring.Owner(key)
	if owner == c.cfg.Self {
		return Result{}, ErrSelfOwned
	}
	if c.health.State(owner) != StateAlive {
		c.ownerUnavailable.Add(1)
		return Result{}, ErrOwnerUnavailable
	}
	c.forwards.Add(1)
	c.budget.OnRequest()

	// The hedge candidate is the next alive replica after the owner on the
	// ring, excluding self — deterministic, so every replica hedges a given
	// key to the same place.
	hedgePeer := ""
	for _, p := range c.ring.Successors(key, len(c.ring.Peers()))[1:] {
		if p != c.cfg.Self && c.health.State(p) == StateAlive {
			hedgePeer = p
			break
		}
	}

	fctx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels the losing attempt
	results := make(chan attempt, 2)
	launch := func(peer string, hedged bool) {
		//collsel:goroutine per-attempt worker: bounded to two per forward, unblocked by the buffered results channel, canceled via fctx when the forward returns
		go func() {
			status, body, err := c.tr.Select(fctx, peer, collective, procs, msgBytes)
			results <- attempt{peer: peer, status: status, body: body, err: err, hedged: hedged}
		}()
	}
	launch(owner, false)
	outstanding := 1
	hedged := false
	tryHedge := func() {
		if hedged || hedgePeer == "" {
			return
		}
		hedged = true // one secondary attempt per forward, granted or not
		if !c.budget.TryHedge() {
			return
		}
		c.hedges.Add(1)
		launch(hedgePeer, true)
		outstanding++
	}

	var hedgeTimer <-chan time.Time
	if hedgePeer != "" {
		hedgeTimer = c.clock.After(c.cfg.HedgeDelay)
	}
	var lastErr error
	for outstanding > 0 {
		select {
		case a := <-results:
			outstanding--
			if a.err != nil {
				// Transport-level failure: evidence against the peer, and
				// grounds for an immediate (budgeted) retry.
				c.health.MarkFailure(a.peer)
				lastErr = a.err
				tryHedge()
				continue
			}
			c.health.MarkSuccess(a.peer)
			if a.status == http.StatusOK {
				if a.hedged {
					c.hedgeWins.Add(1)
				}
				return Result{Peer: a.peer, Body: a.body, HedgeWin: a.hedged}, nil
			}
			// The peer answered but could not serve the cell (shed,
			// draining, failed selection): the answer is unusable here,
			// the local fallback decides what the client sees.
			lastErr = fmt.Errorf("cluster: peer %s answered %d", a.peer, a.status)
			tryHedge()
		case <-hedgeTimer:
			hedgeTimer = nil
			tryHedge()
		case <-ctx.Done():
			c.forwardErrors.Add(1)
			return Result{}, ctx.Err()
		}
	}
	c.forwardErrors.Add(1)
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: no forward attempt completed")
	}
	return Result{}, lastErr
}

// ShareAsync queues one promoted-cell payload for delivery to every other
// non-dead peer. Never blocks: a full queue drops the share (the peers
// will simulate the cell themselves if they ever need it).
func (c *Cluster) ShareAsync(payload []byte) {
	select {
	case <-c.baseCtx.Done():
		c.sharesDropped.Add(1)
	case c.shareCh <- payload:
	default:
		c.sharesDropped.Add(1)
	}
}

// deliverShare posts one payload to every other non-dead peer, each under
// its own timeout.
func (c *Cluster) deliverShare(payload []byte) {
	for _, p := range c.ring.Peers() {
		if p == c.cfg.Self || c.health.State(p) == StateDead {
			continue
		}
		sctx, cancel := context.WithTimeout(c.baseCtx, c.cfg.ShareTimeout)
		err := c.tr.Share(sctx, p, payload)
		cancel()
		if err != nil {
			c.shareErrors.Add(1)
			continue
		}
		c.sharesSent.Add(1)
	}
}

// Stats is the cluster's externally visible state for /metrics and
// /healthz.
type Stats struct {
	Self             string         `json:"self"`
	Peers            []PeerSnapshot `json:"peers"`
	Budget           BudgetSnapshot `json:"budget"`
	Forwards         int64          `json:"forwards"`
	ForwardErrors    int64          `json:"forward_errors"`
	Hedges           int64          `json:"hedges"`
	HedgeWins        int64          `json:"hedge_wins"`
	OwnerUnavailable int64          `json:"owner_unavailable"`
	SharesSent       int64          `json:"shares_sent"`
	ShareErrors      int64          `json:"share_errors"`
	SharesDropped    int64          `json:"shares_dropped"`
}

// Stats snapshots the counters and peer states.
func (c *Cluster) Stats() Stats {
	return Stats{
		Self:             c.cfg.Self,
		Peers:            c.health.Snapshot(),
		Budget:           c.budget.Snapshot(),
		Forwards:         c.forwards.Load(),
		ForwardErrors:    c.forwardErrors.Load(),
		Hedges:           c.hedges.Load(),
		HedgeWins:        c.hedgeWins.Load(),
		OwnerUnavailable: c.ownerUnavailable.Load(),
		SharesSent:       c.sharesSent.Load(),
		ShareErrors:      c.shareErrors.Load(),
		SharesDropped:    c.sharesDropped.Load(),
	}
}
