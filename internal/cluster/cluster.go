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
	// ShareQueue bounds cold results waiting to be gossiped to peers;
	// excess shares are dropped, never queued unboundedly (default 64).
	ShareQueue int
	// ShareTimeout bounds one peer's share delivery (default 2s).
	ShareTimeout time.Duration
	// Health parameterizes the peer health machine; its Clock also paces
	// the heartbeat loop.
	Health HealthConfig
	// Transport speaks to peers (default: HTTPTransport with a 5s call
	// timeout). Tests inject fakes.
	Transport Transport
}

// Cluster wires the ring, the health machine and the transport into the
// two operations the serving layer needs: Forward (one deadline-bounded
// cold-query forward to the cell's owner) and ShareAsync (gossiping a
// locally simulated cell to the other replicas).
type Cluster struct {
	cfg    Config
	ring   *Ring
	health *Health
	tr     Transport

	forwards         atomic.Int64 // forward attempts routed to an owner
	forwardErrors    atomic.Int64 // forwards that failed (answered locally)
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
	if cfg.ShareQueue <= 0 {
		cfg.ShareQueue = 64
	}
	if cfg.ShareTimeout <= 0 {
		cfg.ShareTimeout = 2 * time.Second
	}
	cfg.Health.fill()
	if cfg.Transport == nil {
		cfg.Transport = NewHTTPTransport(0)
	}
	c := &Cluster{
		cfg:     cfg,
		ring:    ring,
		tr:      cfg.Transport,
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
			case <-c.cfg.Health.Clock.After(c.cfg.Health.Interval):
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

// forwardTimeout bounds the one attempt a forward makes. The local miss
// path answers in microseconds, so a peer answer is only worth waiting
// for briefly; past this deadline the caller answers locally.
const forwardTimeout = 50 * time.Millisecond

// Result is a won forward: the owning peer's verbatim /select response
// body.
type Result struct {
	Peer string
	Body []byte
}

// Forward routes one cold query to the owner of key: a single transport
// attempt under forwardTimeout. Any error means "answer locally": the
// caller's miss path is the fallback of last resort and is always
// available. A transport failure, including the deadline, is evidence
// against the owner and demotes it until a heartbeat restores it; an HTTP
// error status is a delivered (if unusable) answer and counts as life.
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
	fctx, cancel := context.WithTimeout(ctx, forwardTimeout)
	status, body, err := c.tr.Select(fctx, owner, collective, procs, msgBytes)
	cancel()
	if err != nil {
		// The caller's own cancellation says nothing about the owner.
		if ctx.Err() == nil {
			c.health.MarkFailure(owner)
		}
		c.forwardErrors.Add(1)
		return Result{}, err
	}
	c.health.MarkSuccess(owner)
	if status != http.StatusOK {
		// The owner answered but could not serve the cell (shed, draining,
		// failed selection): the local fallback decides what the client
		// sees.
		c.forwardErrors.Add(1)
		return Result{}, fmt.Errorf("cluster: peer %s answered %d", owner, status)
	}
	return Result{Peer: owner, Body: body}, nil
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
	Forwards         int64          `json:"forwards"`
	ForwardErrors    int64          `json:"forward_errors"`
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
		Forwards:         c.forwards.Load(),
		ForwardErrors:    c.forwardErrors.Load(),
		OwnerUnavailable: c.ownerUnavailable.Load(),
		SharesSent:       c.sharesSent.Load(),
		ShareErrors:      c.shareErrors.Load(),
		SharesDropped:    c.sharesDropped.Load(),
	}
}
