package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"
)

// fakeClock is the deterministic time source: Now stands still and After
// never fires, so the heartbeat loop only probes when a test calls
// ProbeOnce.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time { return c.t }

func (c *fakeClock) After(d time.Duration) <-chan time.Time { return make(chan time.Time) }

// fakeTransport scripts peer behavior per peer name.
type fakeTransport struct {
	mu sync.Mutex
	// behavior per peer: "ok" answers 200, "error" fails transport-level,
	// "hang" blocks until ctx is done, "status:503" answers that status.
	behavior map[string]string
	selects  map[string]int
	shares   map[string][][]byte
}

func newFakeTransport() *fakeTransport {
	return &fakeTransport{behavior: map[string]string{}, selects: map[string]int{}, shares: map[string][][]byte{}}
}

func (f *fakeTransport) set(peer, b string) {
	f.mu.Lock()
	f.behavior[peer] = b
	f.mu.Unlock()
}

func (f *fakeTransport) selectCount(peer string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.selects[peer]
}

// totalSelects counts forward attempts across every peer.
func (f *fakeTransport) totalSelects() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, v := range f.selects {
		n += v
	}
	return n
}

func (f *fakeTransport) Select(ctx context.Context, peer, collective string, procs, msgBytes int) (int, []byte, error) {
	f.mu.Lock()
	f.selects[peer]++
	b := f.behavior[peer]
	f.mu.Unlock()
	switch b {
	case "error":
		return 0, nil, fmt.Errorf("fake: %s unreachable", peer)
	case "hang":
		<-ctx.Done()
		return 0, nil, ctx.Err()
	case "status:503":
		return http.StatusServiceUnavailable, []byte(`{"error":"unavailable"}`), nil
	default:
		return http.StatusOK, []byte(fmt.Sprintf(`{"answered_by":%q}`, peer)), nil
	}
}

func (f *fakeTransport) Ping(ctx context.Context, peer string) error {
	f.mu.Lock()
	b := f.behavior[peer]
	f.mu.Unlock()
	if b == "error" || b == "hang" {
		return fmt.Errorf("fake: %s down", peer)
	}
	return nil
}

func (f *fakeTransport) Share(ctx context.Context, peer string, payload []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.behavior[peer] == "error" {
		return fmt.Errorf("fake: %s down", peer)
	}
	f.shares[peer] = append(f.shares[peer], payload)
	return nil
}

func newTestCluster(t *testing.T, self string, tr Transport, clk Clock) *Cluster {
	t.Helper()
	c, err := New(Config{
		Self:      self,
		Peers:     testPeers,
		Transport: tr,
		Health:    HealthConfig{Interval: time.Second, SuspectAfter: 1, DeadAfter: 3, Clock: clk},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// ownedBy finds a key owned by peer.
func ownedBy(t *testing.T, c *Cluster, owner string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("probe-key-%d", i)
		if c.ring.Owner(key) == owner {
			return key
		}
	}
	t.Fatalf("no key owned by %s found", owner)
	return ""
}

func TestForwardOwnerWins(t *testing.T) {
	tr := newFakeTransport()
	c := newTestCluster(t, testPeers[0], tr, newFakeClock())
	key := ownedBy(t, c, testPeers[1])
	res, err := c.Forward(context.Background(), key, "alltoall", 8, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if res.Peer != testPeers[1] {
		t.Fatalf("result %+v, want owner %s", res, testPeers[1])
	}
	st := c.Stats()
	if st.Forwards != 1 || st.ForwardErrors != 0 || tr.totalSelects() != 1 {
		t.Fatalf("stats %+v after %d attempts, want one clean forward", st, tr.totalSelects())
	}
}

func TestForwardSelfOwned(t *testing.T) {
	c := newTestCluster(t, testPeers[0], newFakeTransport(), newFakeClock())
	key := ownedBy(t, c, testPeers[0])
	if _, err := c.Forward(context.Background(), key, "alltoall", 8, 1024); !errors.Is(err, ErrSelfOwned) {
		t.Fatalf("err %v, want ErrSelfOwned", err)
	}
}

// TestForwardHedgeOnSlowOwner: a hung owner costs a forward at most
// forwardTimeout. The one attempt ends in a deadline error, its hung
// transport call is canceled through the attempt's context before Forward
// returns, no other peer is tried, and the owner is demoted.
func TestForwardHedgeOnSlowOwner(t *testing.T) {
	tr := newFakeTransport()
	c := newTestCluster(t, testPeers[0], tr, newFakeClock())
	key := ownedBy(t, c, testPeers[1])
	tr.set(testPeers[1], "hang")

	start := time.Now()
	_, err := c.Forward(context.Background(), key, "alltoall", 8, 1024)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want the forward deadline", err)
	}
	if elapsed < forwardTimeout || elapsed > forwardTimeout+time.Second {
		t.Fatalf("forward took %v, want about %v", elapsed, forwardTimeout)
	}
	if got := tr.totalSelects(); got != 1 {
		t.Fatalf("%d attempts, want exactly one", got)
	}
	if got := c.health.State(testPeers[1]); got != StateSuspect {
		t.Fatalf("owner state %s after a timed-out forward, want suspect", got)
	}
	if st := c.Stats(); st.Forwards != 1 || st.ForwardErrors != 1 {
		t.Fatalf("stats %+v, want one failed forward", st)
	}
}

// TestForwardRetriesOnFastFailure: a transport-level failure of the owner
// is final. No second peer is tried; the caller answers locally and the
// failure is recorded against the owner's health.
func TestForwardRetriesOnFastFailure(t *testing.T) {
	tr := newFakeTransport()
	c := newTestCluster(t, testPeers[0], tr, newFakeClock())
	key := ownedBy(t, c, testPeers[1])
	tr.set(testPeers[1], "error")

	if _, err := c.Forward(context.Background(), key, "alltoall", 8, 1024); err == nil {
		t.Fatal("forward to an unreachable owner succeeded")
	}
	if got := tr.totalSelects(); got != 1 {
		t.Fatalf("%d attempts, want exactly one", got)
	}
	if got := c.health.State(testPeers[1]); got != StateSuspect {
		t.Fatalf("owner state %s after failed forward, want suspect", got)
	}
}

// TestForwardCallerCancelSparesOwner: a forward cut short by the caller's
// own context (a client that went away) is no evidence against the owner.
func TestForwardCallerCancelSparesOwner(t *testing.T) {
	tr := newFakeTransport()
	c := newTestCluster(t, testPeers[0], tr, newFakeClock())
	key := ownedBy(t, c, testPeers[1])
	tr.set(testPeers[1], "hang")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Forward(ctx, key, "alltoall", 8, 1024); !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want the caller's cancellation", err)
	}
	if got := c.health.State(testPeers[1]); got != StateAlive {
		t.Fatalf("owner state %s after the caller canceled, want alive", got)
	}
}

// TestForwardOwnerUnavailableShortCircuits: a suspect or dead owner is
// never forwarded to — the caller is told to answer locally, and no
// transport call is spent.
func TestForwardOwnerUnavailableShortCircuits(t *testing.T) {
	tr := newFakeTransport()
	c := newTestCluster(t, testPeers[0], tr, newFakeClock())
	key := ownedBy(t, c, testPeers[1])
	c.health.MarkFailure(testPeers[1]) // suspect (SuspectAfter: 1)

	if _, err := c.Forward(context.Background(), key, "alltoall", 8, 1024); !errors.Is(err, ErrOwnerUnavailable) {
		t.Fatalf("err %v, want ErrOwnerUnavailable", err)
	}
	if tr.selectCount(testPeers[1]) != 0 {
		t.Fatal("suspect owner was still forwarded to")
	}
	if c.Stats().OwnerUnavailable != 1 {
		t.Fatalf("stats %+v", c.Stats())
	}
}

// TestForwardPeerErrorStatusFallsThrough: an HTTP error from the owner is
// a delivered answer (the peer is alive) but unusable — the forward
// reports failure so the caller answers locally.
func TestForwardPeerErrorStatusFallsThrough(t *testing.T) {
	tr := newFakeTransport()
	c := newTestCluster(t, testPeers[0], tr, newFakeClock())
	key := ownedBy(t, c, testPeers[1])
	tr.set(testPeers[1], "status:503")

	if _, err := c.Forward(context.Background(), key, "alltoall", 8, 1024); err == nil {
		t.Fatal("forward served a 503 peer body as a win")
	}
	if got := c.health.State(testPeers[1]); got != StateAlive {
		t.Fatalf("owner state %s after HTTP 503, want alive (it answered)", got)
	}
}

// TestHealthLadder pins the alive → suspect → dead walk and the snap back
// to alive, all on the fake clock.
func TestHealthLadder(t *testing.T) {
	clk := newFakeClock()
	h := NewHealth([]string{"p1", "p2"}, nil, HealthConfig{SuspectAfter: 2, DeadAfter: 4, Clock: clk})
	if h.State("p1") != StateAlive {
		t.Fatal("fresh peer not alive")
	}
	h.MarkFailure("p1")
	if h.State("p1") != StateAlive {
		t.Fatal("one failure already moved the peer")
	}
	h.MarkFailure("p1")
	if h.State("p1") != StateSuspect {
		t.Fatal("SuspectAfter failures did not suspect")
	}
	h.MarkFailure("p1")
	h.MarkFailure("p1")
	if h.State("p1") != StateDead {
		t.Fatal("DeadAfter failures did not kill")
	}
	h.MarkSuccess("p1")
	if h.State("p1") != StateAlive {
		t.Fatal("success did not revive")
	}
	if h.State("unknown") != StateDead {
		t.Fatal("unknown peer not dead")
	}
	snap := h.Snapshot()
	if len(snap) != 2 || snap[0].Peer != "p1" || snap[1].Peer != "p2" {
		t.Fatalf("snapshot %+v not sorted", snap)
	}
	if snap[0].Transitions != 3 { // alive→suspect→dead→alive
		t.Fatalf("p1 transitions %d, want 3", snap[0].Transitions)
	}
}

// TestProbeOnceDrivesStates runs heartbeat rounds against a scripted
// transport: a down peer walks to dead in DeadAfter rounds and revives on
// the first good probe.
func TestProbeOnceDrivesStates(t *testing.T) {
	tr := newFakeTransport()
	c := newTestCluster(t, testPeers[0], tr, newFakeClock())
	tr.set(testPeers[1], "error")
	for i := 0; i < 3; i++ {
		c.health.ProbeOnce(context.Background())
	}
	if got := c.health.State(testPeers[1]); got != StateDead {
		t.Fatalf("down peer state %s after 3 failed probes, want dead", got)
	}
	if got := c.health.State(testPeers[2]); got != StateAlive {
		t.Fatalf("up peer state %s, want alive", got)
	}
	tr.set(testPeers[1], "ok")
	c.health.ProbeOnce(context.Background())
	if got := c.health.State(testPeers[1]); got != StateAlive {
		t.Fatalf("revived peer state %s, want alive", got)
	}
}

// TestShareFanout: a queued share reaches every non-dead peer except self,
// and dead peers are skipped.
func TestShareFanout(t *testing.T) {
	tr := newFakeTransport()
	c := newTestCluster(t, testPeers[0], tr, newFakeClock())
	c.Start()
	payload := []byte(`{"cell":1}`)
	c.ShareAsync(payload)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if c.Stats().SharesSent == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shares never delivered: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.shares[testPeers[1]]) != 1 || len(tr.shares[testPeers[2]]) != 1 {
		t.Fatalf("share fanout %v", tr.shares)
	}
	if len(tr.shares[testPeers[0]]) != 0 {
		t.Fatal("share delivered to self")
	}
}

func TestShareSkipsDeadAndDropsWhenFull(t *testing.T) {
	tr := newFakeTransport()
	c, err := New(Config{
		Self:       testPeers[0],
		Peers:      testPeers,
		Transport:  tr,
		Health:     HealthConfig{Clock: newFakeClock()},
		ShareQueue: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Not started: the queue fills and further shares drop.
	c.ShareAsync([]byte("a"))
	c.ShareAsync([]byte("b"))
	if c.Stats().SharesDropped != 1 {
		t.Fatalf("sharesDropped %d, want 1", c.Stats().SharesDropped)
	}
	// Dead peers are skipped at delivery time.
	for i := 0; i < 3; i++ {
		c.health.MarkFailure(testPeers[1])
	}
	c.Start()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().SharesSent != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("share never delivered: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.shares[testPeers[1]]) != 0 {
		t.Fatal("share delivered to a dead peer")
	}
}

func TestNewValidatesMembership(t *testing.T) {
	if _, err := New(Config{Self: "http://nope:1", Peers: testPeers}); err == nil {
		t.Fatal("self outside the peer list accepted")
	}
	if _, err := New(Config{Self: "a", Peers: []string{"a"}}); err != nil {
		t.Fatalf("single-replica cluster rejected: %v", err)
	}
}
