package session

import (
	"errors"

	"dbtouch/internal/core"
	"dbtouch/internal/protocol"
	"dbtouch/internal/storage"
	"dbtouch/internal/touchos"
)

// failf renders one failed operation for the wire, marking
// admission-control rejections (ErrOverloaded) so the HTTP layer can
// answer 503 + Retry-After.
func failf(op string, err error) protocol.Response {
	if errors.Is(err, ErrOverloaded) {
		return protocol.Overloadedf("%s: %v", op, err)
	}
	return protocol.Errorf("%s: %v", op, err)
}

// HandleRequest routes one decoded protocol request into the manager:
// session lifecycle ops run on the manager itself, everything else
// resolves the named session and executes on the calling goroutine
// (wire-driven sessions are request-at-a-time by construction — each
// request is one batch, serialized by the session's run lock).
// Errors come back as failed responses, never panics: the wire is a
// trust boundary.
func (m *Manager) HandleRequest(req protocol.Request) protocol.Response {
	if err := req.CheckVersion(); err != nil {
		return protocol.Errorf("%v", err)
	}
	// Answer in the version the request spoke: a v1 client sees response
	// envelopes byte-identical to a v1 server's, which is what makes the
	// protocol bump invisible until a client opts into v2 features.
	resp := m.serveRequest(req)
	resp.V = req.V
	return resp
}

func (m *Manager) routeRequest(req protocol.Request) protocol.Response {
	switch req.Op {
	case protocol.OpOpen:
		if req.Session == "" {
			return protocol.Errorf("open: missing session id")
		}
		if _, err := m.Create(req.Session); err != nil {
			return failf("open", err)
		}
		return protocol.OK()
	case protocol.OpEvict:
		if !m.Evict(req.Session) {
			resp := protocol.Errorf("evict: session %q not found", req.Session)
			resp.Gone = true
			return resp
		}
		return protocol.OK()
	case protocol.OpAppend:
		return m.handleAppend(req)
	case protocol.OpStats:
		st := m.Stats()
		resp := protocol.OK()
		resp.Stats = &st
		return resp
	}
	s, ok := m.Get(req.Session)
	if !ok {
		// Gone tells a resume-aware client this is worth an OpResume +
		// retry rather than a hard failure (the session may only have
		// been LRU-evicted, or the server restarted).
		resp := protocol.Errorf("%s: session %q not found", req.Op, req.Session)
		resp.Gone = true
		return resp
	}
	switch req.Op {
	case protocol.OpIdle:
		if err := s.Idle(req.Idle); err != nil {
			return protocol.Errorf("idle: %v", err)
		}
		return protocol.OK()
	case protocol.OpPerform:
		return s.handlePerform(req)
	case protocol.OpCreate:
		return s.handleCreate(req)
	case protocol.OpConfigure:
		return s.handleConfigure(req)
	case protocol.OpPin:
		return s.handlePin(req)
	default:
		return protocol.Errorf("unknown op %q", req.Op)
	}
}

// handleAppend routes an OpAppend into the named live table. A
// rate-limited append (storage.ErrAppendLimited) renders as an
// overloaded response, so remote feeders back off like overloaded
// gesture clients do.
func (m *Manager) handleAppend(req protocol.Request) protocol.Response {
	if req.Table == "" {
		return protocol.Errorf("append: missing table name")
	}
	batch := req.Batch()
	if batch.Len() == 0 {
		return protocol.Errorf("append: no rows")
	}
	t, err := m.liveTable(req.Table)
	if err != nil {
		return protocol.Errorf("append: %v", err)
	}
	snap, err := t.AppendColumns(batch)
	if err != nil {
		if errors.Is(err, storage.ErrAppendLimited) {
			return protocol.Overloadedf("append: %v", err)
		}
		return protocol.Errorf("append: %v", err)
	}
	resp := protocol.OK()
	resp.Epoch = snap.Epoch
	resp.Rows = snap.Rows
	return resp
}

// SubscribeSession opens a bounded result stream on the named session —
// the subscription half of the wire protocol (the HTTP handler streams
// its frames). The stream observes results of requests handled after the
// subscription.
func (m *Manager) SubscribeSession(id string, buffer int) (*core.ResultStream, error) {
	s, ok := m.Get(id)
	if !ok {
		return nil, &notFoundError{id: id}
	}
	return s.Subscribe(buffer), nil
}

// notFoundError reports an unknown session id.
type notFoundError struct{ id string }

func (e *notFoundError) Error() string { return "session \"" + e.id + "\" not found" }

func (s *Session) handlePerform(req protocol.Request) protocol.Response {
	if req.Gesture == nil {
		return protocol.Errorf("perform: missing gesture")
	}
	id, ok := s.BoundObject(req.Object)
	if !ok {
		return protocol.Errorf("perform: unknown object %q", req.Object)
	}
	g := *req.Gesture
	g.Target = id
	// The frames render under the run lock: the kernel's results are
	// valid only until its next batch, so no copy is needed.
	var frames []protocol.ResultFrame
	err := s.Do(func(k *core.Kernel) error {
		results, err := k.Perform(g)
		frames = protocol.FrameResults(results)
		return err
	})
	if err != nil {
		return protocol.Errorf("perform: %v", err)
	}
	resp := protocol.OK()
	resp.Results = frames
	return resp
}

func (s *Session) handleCreate(req protocol.Request) protocol.Response {
	spec := req.Create
	if spec == nil {
		return protocol.Errorf("create: missing spec")
	}
	if req.Object == "" {
		return protocol.Errorf("create: missing object name")
	}
	var objID int
	err := s.Do(func(k *core.Kernel) error {
		frame := touchos.NewRect(spec.X, spec.Y, spec.W, spec.H)
		var (
			o   *core.Object
			err error
		)
		if spec.Column != "" {
			o, err = s.CreateColumnObject(spec.Table, spec.Column, frame)
		} else {
			o, err = s.CreateTableObject(spec.Table, frame)
		}
		if err != nil {
			return err
		}
		objID = o.ID()
		return nil
	})
	if err != nil {
		return protocol.Errorf("create: %v", err)
	}
	s.BindObject(req.Object, objID)
	resp := protocol.OK()
	resp.ObjectID = objID
	return resp
}

func (s *Session) handleConfigure(req protocol.Request) protocol.Response {
	if req.Actions == nil {
		return protocol.Errorf("configure: missing actions")
	}
	id, ok := s.BoundObject(req.Object)
	if !ok {
		return protocol.Errorf("configure: unknown object %q", req.Object)
	}
	err := s.Do(func(k *core.Kernel) error {
		o, err := k.Object(id)
		if err != nil {
			return err
		}
		a, err := req.Actions.Apply(o.Actions(), o.Matrix())
		if err != nil {
			return err
		}
		o.SetActions(a)
		return nil
	})
	if err != nil {
		return protocol.Errorf("configure: %v", err)
	}
	return protocol.OK()
}

func (s *Session) handlePin(req protocol.Request) protocol.Response {
	spec := req.Create
	if spec == nil {
		return protocol.Errorf("pin: missing placement")
	}
	if req.As == "" {
		return protocol.Errorf("pin: missing name for the promoted object")
	}
	id, ok := s.BoundObject(req.Object)
	if !ok {
		return protocol.Errorf("pin: unknown object %q", req.Object)
	}
	var objID int
	err := s.Do(func(k *core.Kernel) error {
		o, err := k.Object(id)
		if err != nil {
			return err
		}
		promoted, err := k.PromoteHotRegion(o, touchos.NewRect(spec.X, spec.Y, spec.W, spec.H))
		if err != nil {
			return err
		}
		objID = promoted.ID()
		return nil
	})
	if err != nil {
		return protocol.Errorf("pin: %v", err)
	}
	s.BindObject(req.As, objID)
	resp := protocol.OK()
	resp.ObjectID = objID
	return resp
}
