// Package remote simulates the paper's remote-processing deployment
// (§4 "Remote Processing"): the touch device stores only small (coarse)
// samples and answers touches locally at once, while a server stores the
// base data and big samples and ships fine-grained refinements back.
// Because "sending a new remote request for every single touch input of a
// long gesture will lead to extensive administration and communication
// costs", the device batches touch requests into round trips.
//
// The split mirrors the session layer's ownership contract: a Device is
// per-session mutable state (local hierarchy, request pipeline, stats) and
// belongs to one exploration session, while one Server is the shared side
// and may serve any number of concurrent devices — its request handling is
// serialized internally, modeling a single-queue server process.
package remote

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"dbtouch/internal/iomodel"
	"dbtouch/internal/sample"
	"dbtouch/internal/storage"
	"dbtouch/internal/vclock"
)

// NetParams models the device↔server link.
type NetParams struct {
	// RTT is the round-trip latency per request.
	RTT time.Duration
	// BytesPerSec is the transfer bandwidth.
	BytesPerSec float64
}

// DefaultNet models a 2013-era WAN link: 60ms RTT, 2 MB/s.
func DefaultNet() NetParams {
	return NetParams{RTT: 60 * time.Millisecond, BytesPerSec: 2 << 20}
}

// Server owns the base data and the full sample hierarchy, with its own
// clock: server work overlaps device work, so server read time contributes
// to response latency without blocking the device. One server may be
// shared by many concurrent device sessions; requests are served one at a
// time under an internal lock (a single-queue server). Note that server
// cache state (warm blocks) is shared across devices, so a request's cost
// depends on what earlier requests — possibly another device's — already
// warmed, exactly as on a real shared server; with concurrent devices the
// arrival order, and hence per-device cost, follows the goroutine
// schedule. Single-device deployments remain fully deterministic.
type Server struct {
	mu        sync.Mutex
	clock     *vclock.Clock
	hierarchy *sample.Hierarchy
}

// NewServer builds a server over base with a full hierarchy.
func NewServer(base *storage.Column, levels int, params iomodel.Params) (*Server, error) {
	clock := vclock.New()
	h, err := sample.Build(base, levels, clock, params, nil)
	if err != nil {
		return nil, err
	}
	return &Server{clock: clock, hierarchy: h}, nil
}

// readIDs serves point reads for the given base ids at a level (duplicates
// after stride snapping are deduplicated), returning the values, the base
// ids they represent, and the server time consumed.
func (s *Server) readIDs(baseIDs []int, level int) (values []float64, ids []int, cost time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := s.clock.Now()
	l, err := s.hierarchy.Level(level)
	if err != nil {
		return nil, nil, 0
	}
	seen := make(map[int]bool, len(baseIDs))
	for _, baseID := range baseIDs {
		idx := baseID / l.Stride
		if idx < 0 {
			idx = 0
		}
		if idx >= l.Col.Len() {
			idx = l.Col.Len() - 1
		}
		if seen[idx] {
			continue
		}
		seen[idx] = true
		l.Tracker.Access(idx)
		values = append(values, l.Col.Float(idx))
		ids = append(ids, idx*l.Stride)
	}
	return values, ids, s.clock.Now() - start
}

// Refinement is a fine-grained server answer for one base tuple.
type Refinement struct {
	BaseID int
	Value  float64
	Level  int
	// RequestedAt is when the batch containing this refinement left the
	// device; ArrivesAt is when the refinement lands back.
	RequestedAt time.Duration
	ArrivesAt   time.Duration
}

// Stats counts device-side activity.
type Stats struct {
	LocalAnswers int64
	RoundTrips   int64
	TouchesAsked int64
	BytesMoved   int64
	Refinements  int64
}

// Device is the touch-side half: coarse local hierarchy plus an async
// request pipeline to the server.
type Device struct {
	clock *vclock.Clock
	local *sample.Hierarchy
	// localFinest is the finest level index available locally, counted
	// in *server* level numbering (device level 0 == server level
	// serverOffset).
	serverOffset int
	server       *Server
	net          NetParams
	// BatchWindow groups touch requests arriving within the window into
	// one round trip; zero sends one request per touch.
	BatchWindow time.Duration

	pendingIDs    []int
	pendingLevel  int
	batchDeadline time.Duration

	inFlight []Refinement
	stats    Stats
}

// NewDevice builds a device holding only the levels of base coarser than
// or equal to serverOffset (i.e. a 1/2^serverOffset sample downward).
func NewDevice(clock *vclock.Clock, server *Server, serverOffset, localLevels int, params iomodel.Params) (*Device, error) {
	if serverOffset < 0 || serverOffset >= server.hierarchy.NumLevels() {
		return nil, fmt.Errorf("remote: server offset %d out of range", serverOffset)
	}
	// The hierarchy is the server's: reading a level may build it, so
	// devices created concurrently take the server lock to read it.
	server.mu.Lock()
	lvl, err := server.hierarchy.Level(serverOffset)
	server.mu.Unlock()
	if err != nil {
		return nil, err
	}
	// The device's base is a copy of the server's level at serverOffset.
	local, err := sample.Build(lvl.Col.Clone(), localLevels, clock, params, nil)
	if err != nil {
		return nil, err
	}
	return &Device{
		clock:        clock,
		local:        local,
		serverOffset: serverOffset,
		server:       server,
		net:          DefaultNet(),
		BatchWindow:  150 * time.Millisecond,
	}, nil
}

// Stats returns device counters.
func (d *Device) Stats() Stats { return d.stats }

// Answer is the immediate (local) response to a touch.
type Answer struct {
	Value float64
	// BaseID is the base tuple the local sample entry represents.
	BaseID int
	// Local level that answered, in server level numbering.
	Level int
}

// Touch answers a touch on base tuple baseID immediately from local data
// and enqueues a request for detail at wantLevel (server numbering; lower
// = finer). Refinements arrive asynchronously; see Poll.
func (d *Device) Touch(baseID, wantLevel int) Answer {
	d.stats.TouchesAsked++
	stride := 1 << d.serverOffset
	localID := baseID / stride
	v, localBase, err := d.local.ValueAt(localID, 0)
	if err != nil {
		return Answer{}
	}
	ans := Answer{Value: v, BaseID: localBase * stride, Level: d.serverOffset}
	d.stats.LocalAnswers++
	if wantLevel < d.serverOffset {
		d.enqueue(baseID, wantLevel)
	}
	return ans
}

// enqueue batches a detail request.
func (d *Device) enqueue(baseID, level int) {
	if len(d.pendingIDs) == 0 {
		d.batchDeadline = d.clock.Now() + d.BatchWindow
		d.pendingLevel = level
	}
	if level < d.pendingLevel {
		d.pendingLevel = level
	}
	d.pendingIDs = append(d.pendingIDs, baseID)
	if d.BatchWindow == 0 {
		d.flush()
	}
}

// flush sends the pending batch as one round trip.
func (d *Device) flush() {
	if len(d.pendingIDs) == 0 {
		return
	}
	sort.Ints(d.pendingIDs)
	values, ids, serverCost := d.server.readIDs(d.pendingIDs, d.pendingLevel)
	bytes := int64(len(values)) * 8
	transfer := time.Duration(float64(bytes) / d.net.BytesPerSec * float64(time.Second))
	arrive := d.clock.Now() + d.net.RTT + serverCost + transfer
	requested := d.clock.Now()
	for i, v := range values {
		d.inFlight = append(d.inFlight, Refinement{
			BaseID: ids[i], Value: v, Level: d.pendingLevel,
			RequestedAt: requested, ArrivesAt: arrive,
		})
	}
	d.stats.RoundTrips++
	d.stats.BytesMoved += bytes
	d.pendingIDs = d.pendingIDs[:0]
}

// Poll delivers refinements that have arrived by the current virtual
// time, flushing any batch whose window expired.
func (d *Device) Poll() []Refinement {
	now := d.clock.Now()
	if len(d.pendingIDs) > 0 && now >= d.batchDeadline {
		d.flush()
	}
	var arrived, waiting []Refinement
	for _, r := range d.inFlight {
		if r.ArrivesAt <= now {
			arrived = append(arrived, r)
		} else {
			waiting = append(waiting, r)
		}
	}
	d.inFlight = waiting
	d.stats.Refinements += int64(len(arrived))
	return arrived
}

// Flush forces the current batch out (end of gesture).
func (d *Device) Flush() { d.flush() }
