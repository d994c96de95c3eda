// Command collseld serves algorithm selections over HTTP from a compiled
// decision-table artifact (see compilestore). Queries the table covers are
// answered in sub-microsecond time. Every other query is answered at once
// as well: from the analytical cost model, or from the nearest compiled
// cell where the model cannot answer (an unresolvable or drifted machine,
// more procs than the machine has). Behind a model answer a background
// refinement simulates the cell. One refinement gate coalesces it per
// cell, runs at most -cold-workers at once with -cold-queue more waiting
// (an excess refinement is shed), gives each a deadline
// (-select-timeout) and stops refining a cell after its third failure;
// it gates work, never answers, and -no-cold turns refinement off.
// Every refined cell and every exact peer answer is promoted into the
// served table, so the next query for it is a table hit.
//
// Endpoints: POST/GET /select, GET /healthz, POST /reload, POST /observe,
// GET /metrics. SIGHUP also reloads the artifact; SIGINT/SIGTERM first
// drain (/healthz reports draining so balancers stop routing here,
// stragglers still get answers) for -drain, then shut down gracefully.
//
// -observe-wal enables the closed feedback loop: POST /observe ingests
// arrival-pattern observations into a crash-safe write-ahead log, and a
// background recompiler re-simulates drifted table cells and hot-swaps the
// tuned artifact in (written next to the WAL as autotuned.json). A full
// ingest buffer sheds a batch with 429 and a Retry-After of 1 or 2 s. A
// recompile is a pure function of the served table and the observation
// digest, so a failed one is not retried until new evidence or a /reload
// changes one of them. Without the flag /observe answers 404 and the
// daemon behaves exactly as before.
//
// -peers enables replication: the replicas consistent-hash the uncovered-cell
// keyspace among themselves, forward an uncovered query to the owning
// replica in one attempt under a fixed 50ms deadline, gossip refined cells
// over POST /peer/cell, and track each other's liveness with -heartbeat
// probes. A failed or timed-out forward is answered by the local miss path
// and demotes the owner until a heartbeat restores it — peers speed
// answers up, never gate them.
// Artifact saves retain the previous file as <store>.bak; startup and
// /reload recover from it when the primary is corrupt.
//
// Usage:
//
//	compilestore -machine SimCluster -procs 8 -o table.json
//	collseld -store table.json -addr :8177
//	curl 'localhost:8177/select?collective=alltoall&msg_bytes=1024&procs=8'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"collsel/internal/cliutil"
	"collsel/internal/cluster"
	"collsel/internal/feedback"
	"collsel/internal/serve"
	"collsel/internal/store"
)

func main() {
	storePath := flag.String("store", "decision_table.json", "decision-table artifact to serve")
	addr := flag.String("addr", ":8177", "listen address")
	coldWorkers := flag.Int("cold-workers", 2, "max concurrent background refinements (live selections) of uncovered cells")
	noCold := flag.Bool("no-cold", false, "never simulate: answer uncovered queries from the model or the nearest cell without refining them")
	coldQueue := flag.Int("cold-queue", 8, "refinements allowed to wait for a worker; excess refinements are shed (negative: no waiting)")
	selectTimeout := flag.Duration("select-timeout", 30*time.Second, "deadline for one refinement's live selection (from when it holds a worker), enforced down into the simulation workers (0 disables)")
	drainWait := flag.Duration("drain", 10*time.Second, "grace period between SIGTERM (healthz flips to draining) and shutdown")
	observeWAL := flag.String("observe-wal", "", "directory for the /observe write-ahead log; empty disables the feedback loop")
	observeBuffer := flag.Int("observe-buffer", 64, "accepted-but-not-yet-logged observation batches; /observe sheds with 429 beyond this")
	recompileThreshold := flag.Float64("recompile-threshold", 0.25, "skew-factor drift that marks a table cell stale and triggers recompilation")
	peers := flag.String("peers", "", "comma-separated base URLs of every replica (including this one); empty disables clustering")
	self := flag.String("self", "", "this replica's own base URL as it appears in -peers (required with -peers)")
	heartbeat := flag.Duration("heartbeat", time.Second, "peer liveness probe interval")
	peerTimeout := flag.Duration("peer-timeout", 5*time.Second, "per-call timeout for peer probes and shares (a forward has its own 50ms deadline)")
	flag.Parse()

	logger := log.New(os.Stderr, "collseld: ", log.LstdFlags)

	tb, usedBackup, err := store.LoadWithFallback(*storePath)
	if err != nil {
		cliutil.Fatal("collseld", err)
	}
	if usedBackup {
		logger.Printf("primary artifact %s unusable, recovered last-known-good %s", *storePath, store.BackupPath(*storePath))
	}
	logger.Printf("loaded %s: table %s for %s, %d cells", *storePath, tb.Version, tb.Machine, tb.Cells())

	handle := store.NewHandle(tb)

	// The feedback pipeline recovers its WAL before the listener opens:
	// observations that survived a crash shape the very first recompile.
	var pipeline *feedback.Pipeline
	if *observeWAL != "" {
		pipeline, err = feedback.New(feedback.Config{
			WALDir: *observeWAL,
			Buffer: *observeBuffer,
			Plan:   feedback.PlanConfig{Threshold: *recompileThreshold},
			Handle: handle,
			Logf:   logger.Printf,
		})
		if err != nil {
			cliutil.Fatal("collseld", err)
		}
		st := pipeline.Stats()
		logger.Printf("feedback loop enabled: WAL %s (%d records recovered, %d profiles), artifact %s",
			*observeWAL, st.WAL.Records, st.Profiles, filepath.Join(*observeWAL, "autotuned.json"))
	}

	// The replication layer: a static peer ring with consistent-hash
	// ownership of the uncovered-cell keyspace. Peers are an optimization —
	// the local miss path answers whenever they cannot — so clustering is wired
	// before serve.New but started after, and any validation error is fatal
	// (a typo'd peer list must not silently serve standalone).
	var clu *cluster.Cluster
	if *peers != "" {
		peerList := strings.Split(*peers, ",")
		for i := range peerList {
			peerList[i] = strings.TrimSpace(peerList[i])
		}
		if *self == "" {
			cliutil.Fatal("collseld", fmt.Errorf("-peers requires -self (this replica's URL as listed in -peers)"))
		}
		clu, err = cluster.New(cluster.Config{
			Self:      *self,
			Peers:     peerList,
			Health:    cluster.HealthConfig{Interval: *heartbeat},
			Transport: cluster.NewHTTPTransport(*peerTimeout),
		})
		if err != nil {
			cliutil.Fatal("collseld", err)
		}
		logger.Printf("clustering enabled: self %s, %d replicas", *self, len(peerList))
	}

	srv, err := serve.New(serve.Config{
		Handle:        handle,
		StorePath:     *storePath,
		ColdDisabled:  *noCold,
		ColdWorkers:   *coldWorkers,
		ColdQueue:     *coldQueue,
		SelectTimeout: *selectTimeout,
		Feedback:      pipeline,
		Cluster:       clu,
		Logf:          logger.Printf,
	})
	if err != nil {
		cliutil.Fatal("collseld", err)
	}
	if pipeline != nil {
		pipeline.Start()
	}
	if clu != nil {
		clu.Start()
		defer clu.Close()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := cliutil.SignalContext()
	defer stop()

	// SIGHUP re-reads the artifact, the conventional daemon reload signal
	// (the HTTP /reload endpoint does the same).
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	//collsel:goroutine process-lifetime SIGHUP reload loop, owned by the daemon and reaped at exit
	go func() {
		for range hup {
			if rr, err := srv.Reload(); err != nil {
				logger.Printf("SIGHUP reload failed (still serving %s): %v", tableVersion(srv), err)
			} else {
				logger.Printf("SIGHUP reload: now serving table %s (%d cells)", rr.NewVersion, rr.Cells)
			}
		}
	}()

	errCh := make(chan error, 1)
	//collsel:goroutine ListenAndServe loop: joined through errCh and the graceful-shutdown path below
	go func() {
		logger.Printf("listening on %s", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			cliutil.Fatal("collseld", err)
		}
	case <-ctx.Done():
		// Drain before shutdown: /healthz flips to draining (503) so load
		// balancers stop routing here, then the grace period lets routed
		// stragglers arrive and finish before the listener closes. A second
		// signal during the drain skips straight to shutdown.
		stop()
		srv.StartDrain()
		if *drainWait > 0 {
			logger.Printf("draining for up to %s (send another signal to skip)", *drainWait)
			again, cancelAgain := cliutil.SignalContext()
			select {
			case <-time.After(*drainWait):
			case <-again.Done():
				logger.Printf("second signal: skipping drain")
			}
			cancelAgain()
		}
		logger.Printf("shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			cliutil.Fatal("collseld", fmt.Errorf("shutdown: %w", err))
		}
	}
	// The pipeline outlives the listener: in-flight /observe handlers may
	// still be offering batches until Shutdown returns. Close drains every
	// accepted batch to the WAL — a 202 means durable across the restart.
	if pipeline != nil {
		if err := pipeline.Close(); err != nil {
			logger.Printf("feedback shutdown: %v", err)
		}
	}
}

func tableVersion(s *serve.Server) string {
	if t := s.TableSnapshot(); t != nil {
		return t.Version
	}
	return "none"
}
