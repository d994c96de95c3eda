package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// ForwardedHeader marks a peer-forwarded /select: the receiving replica
// must answer from its own ladder (table, model, nearest cell) and
// never forward again, so a misconfigured ring can produce at most one
// extra hop, never a loop.
const ForwardedHeader = "X-Collsel-Forwarded"

// maxPeerBody bounds any response body read from a peer; a replica must
// not let a confused or malicious peer balloon its memory.
const maxPeerBody = 1 << 20

// Transport is the wire seam between replicas. Production uses
// HTTPTransport; the deterministic tests substitute fakes that fail,
// stall or partition on command.
type Transport interface {
	// Select forwards one cold query to peer and returns the HTTP status
	// and response body. err is reserved for transport-level failures
	// (unreachable, timeout); an HTTP error status is a delivered answer.
	Select(ctx context.Context, peer, collective string, procs, msgBytes int) (status int, body []byte, err error)
	// Ping probes peer liveness; nil means the peer serves.
	Ping(ctx context.Context, peer string) error
	// Share delivers one promoted-cell payload to peer's /peer/cell.
	Share(ctx context.Context, peer string, payload []byte) error
}

// HTTPTransport speaks the collseld HTTP API between replicas. Peer names
// are base URLs (http://host:port).
type HTTPTransport struct {
	Client *http.Client
}

// NewHTTPTransport builds the production transport. timeout bounds every
// single peer call (probes and shares; a forward's own, much shorter
// deadline applies on top through its context).
func NewHTTPTransport(timeout time.Duration) *HTTPTransport {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return &HTTPTransport{Client: &http.Client{Timeout: timeout}}
}

func (t *HTTPTransport) Select(ctx context.Context, peer, collective string, procs, msgBytes int) (int, []byte, error) {
	u := fmt.Sprintf("%s/select?collective=%s&procs=%d&msg_bytes=%d",
		strings.TrimSuffix(peer, "/"), url.QueryEscape(collective), procs, msgBytes)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set(ForwardedHeader, "1")
	resp, err := t.Client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerBody))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

func (t *HTTPTransport) Ping(ctx context.Context, peer string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimSuffix(peer, "/")+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := t.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, maxPeerBody))
	// A draining or table-less replica answers 503: reachable, but it must
	// not receive forwarded traffic — treat it as down for routing.
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s/healthz answered %d", peer, resp.StatusCode)
	}
	return nil
}

func (t *HTTPTransport) Share(ctx context.Context, peer string, payload []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimSuffix(peer, "/")+"/peer/cell", strings.NewReader(string(payload)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, maxPeerBody))
	if resp.StatusCode >= 300 {
		return fmt.Errorf("cluster: %s/peer/cell answered %d", peer, resp.StatusCode)
	}
	return nil
}
