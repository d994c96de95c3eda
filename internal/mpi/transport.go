package mpi

import (
	"fmt"

	"collsel/internal/fault"
	"collsel/internal/netmodel"
	"collsel/internal/sim"
)

// Message is what a receive operation yields.
type Message struct {
	Source int
	Tag    int
	// Data is the payload (may be nil for pure-timing messages).
	Data []float64
	// Bytes is the wire size the message was charged for.
	Bytes int
}

// inMsg is one point-to-point message, from Isend until both the sender
// and the receiver are done with it. The same entry of the world's message
// slab travels as eager payload, as rendezvous RTS envelope and as
// rendezvous data, and is what a completed receive request points at.
//
// An inMsg is 40 bytes and holds no pointers, so the slab's chunks are
// allocated noscan and a delivery touches one cache line of it. A
// data-mode payload lives beside it in the store's side table, under the
// message's handle (store.setData); timing-mode messages carry none and
// never touch that table.
type inMsg struct {
	tag   int
	bytes int
	// h is the message's own handle in the world's message slab.
	h        int32
	src, dst int32
	// pseq is the per-(src,dst)-pair sequence number used to enforce MPI's
	// non-overtaking guarantee at the matching layer: with jittered link
	// latencies, a later message may physically arrive earlier, but it must
	// not become *matchable* before its predecessors.
	pseq int32
	// sendReq is the handle of the sender's request (rendezvous: completed
	// when the data actually leaves the sender port).
	sendReq int32
	// rndv marks a rendezvous message: matching it releases the payload
	// still at the sender.
	rndv bool
	// refs counts the sides (sender, receiver) still holding the message;
	// see World.releaseMsg.
	refs int8
}

// envelope is one entry of a rank's matching queues (Rank.posted,
// Rank.unexpected): the source and tag a scan compares, stored inline, and
// the handle of the posted Request or the unexpected inMsg it stands for.
type envelope struct {
	tag int
	src int32
	h   int32
}

// held is an arrival waiting in its receiver's reorder list for a
// predecessor from the same source: its source, pair sequence number and
// message handle.
type held struct{ src, pseq, h int32 }

// --- transport events --------------------------------------------------------

// Transport fast-path events are AtOp events to the world's handler,
// naming their message and request by handle, so the steady-state message
// flow schedules no closures and allocates nothing. Fault-path events
// (retransmissions, crashes) stay closures: they are rare by construction
// and their capture lists are irregular.
const (
	opSelfDeliver     = iota // self-send: complete the send, deliver locally
	opSendComplete           // last byte left the send port
	opArriveAtPort           // first byte reached the receiver port
	opDeliver                // message (or RTS) fully arrived: match it
	opSendRndvData           // CTS arrived back: push the rendezvous payload
	opArriveToRequest        // rendezvous payload reached the receiver port
	opRecvComplete           // rendezvous payload drained: complete the recv
)

// schedule enqueues transport event op on message m at absolute virtual
// time at; req is the receive request's handle for the rendezvous-data
// ops and ignored by the others, arg the transfer time of the arrive ops.
func (w *World) schedule(at sim.Time, op uint16, m *inMsg, req int32, arg int64) {
	w.K.AtOp(at, w.hid, op, m.h, req, arg)
}

// Handle implements sim.Handler: the kernel calls it to run the transport
// event scheduled on message handle mh and request handle rh.
func (w *World) Handle(op uint16, mh, rh int32, arg int64) {
	m := w.st.msgs.at(mh)
	switch op {
	case opSelfDeliver:
		w.sendDone(m)
		w.deliverPayload(m)
	case opSendComplete:
		w.sendDone(m)
	case opArriveAtPort:
		w.arriveAtPort(m, arg)
	case opDeliver:
		w.deliverPayload(m)
	case opSendRndvData:
		w.sendRendezvousData(m, rh, 0)
	case opArriveToRequest:
		w.arriveToRequest(m, rh, arg)
	case opRecvComplete:
		w.recvDone(w.st.reqs.at(rh), m)
	}
}

// sendDone completes m's send request and drops the sender's reference
// to m: the buffer has been handed to the NIC (or copied locally).
func (w *World) sendDone(m *inMsg) {
	w.complete(w.st.reqs.at(m.sendReq))
	w.releaseMsg(m)
}

// recvDone hands the fully arrived message m to its receive request.
func (w *World) recvDone(req *Request, m *inMsg) {
	w.totalMessages++
	w.totalBytes += int64(m.bytes)
	req.msg = m.h
	w.complete(req)
}

// Request represents an outstanding non-blocking operation. Wait and
// WaitAny release it (MPI_Wait sets the handle to MPI_REQUEST_NULL): the
// world recycles it for a later operation, so a waited request must not be
// used again.
//
// A Request is 32 bytes: everything but the owning rank is an int32 or a
// flag, and the message it received and the process waiting on it are
// named by handle and by process id. The rank pointer lets Wait and
// WaitAny find their world from a bare *Request, and is why the request
// slab is still scanned by the GC.
type Request struct {
	r *Rank // owning rank
	// h is the request's own handle in the world's request slab.
	h int32
	// src and tag are a receive's envelope, kept for its block-reason
	// diagnostic only (matching reads the envelope in Rank.posted).
	src, tag int32
	// msg is the handle of the message a completed receive holds.
	msg int32
	// cond's waiter is the process blocked in Wait, or in a WaitAny over
	// this request.
	cond   sim.Cond
	done   bool
	isRecv bool
}

// Done reports whether the operation completed (MPI_Test semantics,
// without deallocation).
func (q *Request) Done() bool { return q.done }

// complete marks q done and wakes whoever waits on it.
func (w *World) complete(q *Request) {
	q.done = true
	q.cond.Signal(w.K)
}

// BlockReason implements sim.BlockReason: the diagnostic of a process
// blocked in Wait, rendered only if the run ends in a deadlock or watchdog
// report.
func (q *Request) BlockReason() string {
	kind := "send"
	if q.isRecv {
		kind = fmt.Sprintf("recv(src=%d,tag=%d)", q.src, q.tag)
	}
	return fmt.Sprintf("rank %d wait %s", q.r.id, kind)
}

// waitAnyReason is the lazy diagnostic of a process blocked in WaitAny.
type waitAnyReason struct {
	r *Rank
	n int
}

func (w *waitAnyReason) BlockReason() string {
	return fmt.Sprintf("rank %d waitany(%d reqs)", w.r.id, w.n)
}

// WaitAny blocks until at least one of the given requests has completed
// and returns its index and message (MPI_Waitany). The returned request is
// released as by Wait: set reqs[i] to nil before the next call. nil
// entries are skipped; if all requests are nil, WaitAny returns -1
// immediately.
func WaitAny(reqs []*Request) (int, Message) {
	var r *Rank
	for _, q := range reqs {
		if q != nil {
			if q.r == nil {
				panic("mpi: WaitAny on a released request")
			}
			r = q.r
		}
	}
	if r == nil {
		return -1, Message{}
	}
	reason := &waitAnyReason{r: r, n: len(reqs)}
	for {
		for i, q := range reqs {
			if q != nil && q.done {
				return i, q.Wait()
			}
		}
		// Arm every request with the caller: the first completion readies
		// it, later ones in the same instant find it runnable already.
		p := r.curProc()
		for _, q := range reqs {
			if q != nil {
				q.cond.Arm(p)
			}
		}
		p.Park(reason)
		for _, q := range reqs {
			if q != nil {
				q.cond.Disarm()
			}
		}
	}
}

// Wait blocks until the request completes and then releases it, like
// MPI_Wait: q must not be used again, and a second Wait on it panics. For
// receives it returns the received message; for sends the returned
// Message is zero-valued.
func (q *Request) Wait() Message {
	if q.r == nil {
		panic("mpi: Wait on a released request")
	}
	if !q.done {
		q.cond.WaitWith(q.r.curProc(), q)
	}
	w := q.r.w
	var msg Message
	if q.isRecv {
		m := w.st.msgs.at(q.msg)
		msg = Message{Source: int(m.src), Tag: m.tag, Data: w.st.payload(m.h), Bytes: m.bytes}
		w.releaseMsg(m)
	}
	w.st.reqs.put(q.h)
	return msg
}

// Waitall waits for every request in order.
func Waitall(reqs ...*Request) []Message {
	out := make([]Message, len(reqs))
	for i, q := range reqs {
		if q != nil {
			out[i] = q.Wait()
		}
	}
	return out
}

// Isend starts a non-blocking send of data (wire size bytes) to dst with
// tag. The returned request completes when the send buffer may be reused:
// for eager messages when the bytes have left the send port, for rendezvous
// messages when the receiver has matched and the data has been pushed out.
//
// Passing bytes <= 0 derives the wire size from the payload (8 bytes per
// float64); a nil payload with bytes > 0 sends a pure-timing message.
func (r *Rank) Isend(dst, tag int, data []float64, bytes int) *Request {
	return r.isend("Isend", dst, tag, data, bytes, false)
}

// isend starts a send; sync forces the rendezvous protocol (Issend).
func (r *Rank) isend(op string, dst, tag int, data []float64, bytes int, sync bool) *Request {
	if bytes <= 0 {
		bytes = 8 * len(data)
	}
	w := r.w
	req := w.newRequest(r)
	if dst < 0 || dst >= w.size {
		r.Abort("%s to invalid rank %d", op, dst)
		return req
	}
	m := w.newInMsg()
	m.src, m.dst, m.tag, m.bytes = int32(r.id), int32(dst), tag, bytes
	m.pseq, m.sendReq = r.nextPseq(dst), req.h
	if data != nil {
		w.st.setData(m.h, data)
	}

	if dst == r.id {
		// Self message: local copy.
		cost := int64(float64(bytes) * w.plat.CopyNsPerByte)
		w.schedule(w.K.Now()+cost, opSelfDeliver, m, 0, 0)
		return req
	}

	if sync || bytes > w.plat.EagerThresholdBytes {
		r.startRendezvous(m)
	} else {
		r.startEager(m)
	}
	return req
}

// linkFor returns the link between two ranks with any transient fault-plan
// degradation (latency/bandwidth multipliers) applied at the current
// virtual time. Without a fault plan it is exactly plat.LinkFor.
func (w *World) linkFor(src, dst int) netmodel.Link {
	l := w.plat.LinkFor(src, dst)
	if w.fault != nil {
		lat, bw := w.fault.LinkFactors(src, w.K.Now())
		if lat != 1 {
			l.LatencyNs = int64(float64(l.LatencyNs) * lat)
		}
		if bw != 1 {
			l.BandwidthBps *= bw
		}
	}
	return l
}

// retryOrFail handles a dropped transmission attempt: it schedules a
// retransmission after the plan's backoff delay, or — once the retry cap is
// exhausted — fails the simulation with a typed *FaultError at the moment
// the loss would have been detected, instead of letting the receiver
// deadlock. sentAt is when the dropped attempt left the sender port.
func (w *World) retryOrFail(m *inMsg, attempt int, sentAt sim.Time, resend func(next int)) {
	w.drops++
	if attempt >= w.fault.MaxRetries() {
		w.K.At(sentAt, func() {
			w.K.Fail(&FaultError{
				Kind: FaultRetriesExhausted, Rank: int(m.src), Peer: int(m.dst),
				Attempts: attempt + 1, AtNs: sentAt,
			})
		})
		return
	}
	w.retransmits++
	w.K.At(sentAt+w.fault.RetryDelayNs(attempt), func() { resend(attempt + 1) })
}

// startEager pushes the message through the sender port immediately; the
// send request completes when the last byte leaves the port.
func (r *Rank) startEager(m *inMsg) { r.sendEager(m, 0) }

// sendEager models one eager transmission attempt. The fault plan may drop
// the payload on the wire; the sender then retransmits after a backoff
// (the send request still completes at the first attempt's port drain, as
// the buffer has been handed to the NIC).
func (r *Rank) sendEager(m *inMsg, attempt int) {
	w := r.w
	link := w.linkFor(r.id, int(m.dst))
	start := maxTime(w.K.Now(), r.sendBusyUntil)
	sendDone := start + w.plat.OverheadNs + link.TransferNs(m.bytes)
	r.sendBusyUntil = sendDone
	lat := w.noise.LatencyNs(r.id, link.LatencyNs)
	firstByteAt := start + w.plat.OverheadNs + lat

	if attempt == 0 {
		w.schedule(sendDone, opSendComplete, m, 0, 0)
	}
	if w.fault.Drop(r.id, int(m.dst), int64(m.pseq), fault.ChannelEager, attempt) {
		w.retryOrFail(m, attempt, sendDone, func(next int) { r.sendEager(m, next) })
		return
	}
	w.schedule(firstByteAt, opArriveAtPort, m, 0, link.TransferNs(m.bytes))
}

// startRendezvous sends a zero-byte RTS; data moves once the receiver has a
// matching posted receive (handled in matchOrQueue / Irecv).
func (r *Rank) startRendezvous(m *inMsg) {
	m.rndv = true
	r.sendRTS(m, 0)
}

// sendRTS models one RTS transmission attempt; a dropped envelope is
// retransmitted like an eager payload.
func (r *Rank) sendRTS(m *inMsg, attempt int) {
	w := r.w
	link := w.linkFor(r.id, int(m.dst))
	start := maxTime(w.K.Now(), r.sendBusyUntil)
	rtsOut := start + w.plat.OverheadNs
	r.sendBusyUntil = rtsOut
	lat := w.noise.LatencyNs(r.id, link.LatencyNs)
	if w.fault.Drop(r.id, int(m.dst), int64(m.pseq), fault.ChannelRTS, attempt) {
		w.retryOrFail(m, attempt, rtsOut, func(next int) { r.sendRTS(m, next) })
		return
	}
	w.schedule(rtsOut+lat, opDeliver, m, 0, 0)
}

// releaseRendezvous is called on the receiver when a posted receive matches
// an RTS: it models the CTS control message back to the sender and then the
// actual data transfer. It returns the receive-side request completion via
// the normal arrival path. The CTS is modelled as reliable (a tiny control
// message on the reserved return path); the bulk data transfer is subject
// to drops and retransmission.
func (w *World) releaseRendezvous(m *inMsg, recvReq *Request) {
	src, dst := int(m.src), int(m.dst)
	receiver := w.ranks[dst]
	link := w.linkFor(dst, src)
	// CTS: occupies the receiver's send port for the overhead only.
	start := maxTime(w.K.Now(), receiver.sendBusyUntil)
	ctsOut := start + w.plat.OverheadNs
	receiver.sendBusyUntil = ctsOut
	lat := w.noise.LatencyNs(dst, link.LatencyNs)
	w.schedule(ctsOut+lat, opSendRndvData, m, recvReq.h, 0)
}

// sendRendezvousData models one post-CTS bulk transfer attempt from the
// sender port, as in the eager path.
func (w *World) sendRendezvousData(m *inMsg, recvReq int32, attempt int) {
	src, dst := int(m.src), int(m.dst)
	sender := w.ranks[src]
	dlink := w.linkFor(src, dst)
	s := maxTime(w.K.Now(), sender.sendBusyUntil)
	sendDone := s + w.plat.OverheadNs + dlink.TransferNs(m.bytes)
	sender.sendBusyUntil = sendDone
	dlat := w.noise.LatencyNs(src, dlink.LatencyNs)
	firstByteAt := s + w.plat.OverheadNs + dlat
	if attempt == 0 {
		w.schedule(sendDone, opSendComplete, m, 0, 0)
	}
	if w.fault.Drop(src, dst, int64(m.pseq), fault.ChannelData, attempt) {
		w.retryOrFail(m, attempt, sendDone, func(next int) { w.sendRendezvousData(m, recvReq, next) })
		return
	}
	w.schedule(firstByteAt, opArriveToRequest, m, recvReq, dlink.TransferNs(m.bytes))
}

// arriveAtPort serializes the message through the receiver's ejection port
// and delivers the payload when the last byte has been drained.
func (w *World) arriveAtPort(m *inMsg, transferNs int64) {
	dst := w.ranks[m.dst]
	completion := maxTime(w.K.Now(), dst.recvBusyUntil) + transferNs + w.plat.OverheadNs
	dst.recvBusyUntil = completion
	w.schedule(completion, opDeliver, m, 0, 0)
}

// arriveToRequest is the rendezvous-data variant of arriveAtPort: the
// matching receive request is already known.
func (w *World) arriveToRequest(m *inMsg, req int32, transferNs int64) {
	dst := w.ranks[m.dst]
	completion := maxTime(w.K.Now(), dst.recvBusyUntil) + transferNs + w.plat.OverheadNs
	dst.recvBusyUntil = completion
	w.schedule(completion, opRecvComplete, m, req, 0)
}

// deliverPayload runs at the instant a message (or RTS envelope) physically
// arrives. Before matching, it runs through the per-pair sequence check so
// messages become matchable strictly in send order (MPI non-overtaking):
// an early arrival waits in the receiver's reorder list until its
// predecessors from the same source have been matched.
func (w *World) deliverPayload(m *inMsg) {
	dst := w.ranks[m.dst]
	next := dst.inNext(m.src)
	if m.pseq != *next {
		dst.reorder = append(dst.reorder, held{src: m.src, pseq: m.pseq, h: m.h})
		return
	}
	w.matchOrQueue(m)
	*next++
	for len(dst.reorder) > 0 {
		h, ok := dst.takeHeld(m.src, *next)
		if !ok {
			break
		}
		w.matchOrQueue(w.st.msgs.at(h))
		*next++
	}
}

// matchOrQueue matches a send-ordered message against posted receives or
// appends it to the unexpected queue, charging the platform's per-entry
// matching cost for the queue scan.
func (w *World) matchOrQueue(m *inMsg) {
	dst := w.ranks[m.dst]
	for i, e := range dst.posted {
		if e.src == m.src && e.tag == m.tag {
			w.chargeMatch(dst, i+1)
			dst.posted = append(dst.posted[:i], dst.posted[i+1:]...)
			req := w.st.reqs.at(e.h)
			if m.rndv {
				w.releaseRendezvous(m, req)
			} else {
				w.recvDone(req, m)
			}
			return
		}
	}
	w.chargeMatch(dst, len(dst.posted))
	dst.unexpected = append(dst.unexpected, envelope{tag: m.tag, src: m.src, h: m.h})
}

// chargeMatch advances the receiver's port clock by the matching cost of a
// scan over entries queue slots. The receive port is the natural resource:
// matching happens on the path that drains arrivals.
func (w *World) chargeMatch(dst *Rank, entries int) {
	if w.plat.MatchNsPerEntry <= 0 || entries <= 0 {
		return
	}
	cost := int64(w.plat.MatchNsPerEntry * float64(entries))
	busy := maxTime(w.K.Now(), dst.recvBusyUntil)
	dst.recvBusyUntil = busy + cost
}

// Irecv posts a non-blocking receive for a message from src with tag.
func (r *Rank) Irecv(src, tag int) *Request {
	w := r.w
	req := w.newRequest(r)
	req.isRecv, req.src, req.tag = true, int32(src), int32(tag)
	if src < 0 || src >= w.size {
		r.Abort("Irecv from invalid rank %d", src)
		return req
	}
	// Check the unexpected queue first (FIFO per envelope).
	for i, e := range r.unexpected {
		if e.src == int32(src) && e.tag == tag {
			w.chargeMatch(r, i+1)
			r.unexpected = append(r.unexpected[:i], r.unexpected[i+1:]...)
			m := w.st.msgs.at(e.h)
			if m.rndv {
				w.releaseRendezvous(m, req)
			} else {
				w.recvDone(req, m)
			}
			return req
		}
	}
	r.posted = append(r.posted, envelope{tag: tag, src: int32(src), h: req.h})
	return req
}

// Issend starts a non-blocking synchronous-mode send (MPI_Issend): the
// rendezvous protocol is used regardless of size, so the request cannot
// complete before the receiver has posted a matching receive. Open MPI's
// "linear with sync" alltoall relies on this mode.
func (r *Rank) Issend(dst, tag int, data []float64, bytes int) *Request {
	return r.isend("Issend", dst, tag, data, bytes, true)
}

// Send is a blocking send (completes when the buffer may be reused).
func (r *Rank) Send(dst, tag int, data []float64, bytes int) {
	r.Isend(dst, tag, data, bytes).Wait()
}

// Recv is a blocking receive.
func (r *Rank) Recv(src, tag int) Message {
	return r.Irecv(src, tag).Wait()
}

// Sendrecv performs a combined send and receive, as MPI_Sendrecv: both are
// started together, so the pair cannot deadlock against a symmetric partner.
func (r *Rank) Sendrecv(dst, sendTag int, data []float64, bytes int, src, recvTag int) Message {
	rq := r.Irecv(src, recvTag)
	sq := r.Isend(dst, sendTag, data, bytes)
	msg := rq.Wait()
	sq.Wait()
	return msg
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}
