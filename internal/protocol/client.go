package protocol

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"dbtouch/internal/gesture"
)

// Convenience calls wrapping Client.Do, one per protocol op.

// Open creates a session on the server.
func (c *Client) Open(session string) error {
	_, err := c.Do(Request{Op: OpOpen, Session: session})
	return err
}

// Evict removes a session on the server.
func (c *Client) Evict(session string) error {
	_, err := c.Do(Request{Op: OpEvict, Session: session})
	return err
}

// CreateColumn places one column of a table on the session's screen and
// binds it to name, returning the kernel object id.
func (c *Client) CreateColumn(session, name, table, column string, x, y, w, h float64) (int, error) {
	resp, err := c.Do(Request{
		Op: OpCreate, Session: session, Object: name,
		Create: &CreateSpec{Table: table, Column: column, X: x, Y: y, W: w, H: h},
	})
	return resp.ObjectID, err
}

// Configure applies a touch-configuration delta to a named object.
func (c *Client) Configure(session, name string, spec ActionsSpec) error {
	_, err := c.Do(Request{Op: OpConfigure, Session: session, Object: name, Actions: &spec})
	return err
}

// Perform executes a gesture description against a named object and
// returns the frames it produced. The description's Target is stamped
// server-side from the name.
func (c *Client) Perform(session, name string, g gesture.Gesture) ([]ResultFrame, error) {
	resp, err := c.Do(Request{Op: OpPerform, Session: session, Object: name, Gesture: &g})
	return resp.Results, err
}

// Append appends rows to a live table on the server and returns the new
// snapshot epoch and total row count. Cells are coerced server-side
// (JSON numbers arrive as float64; integer columns coerce them back).
// A rate-limited append surfaces as an overloaded error with Retry-After.
func (c *Client) Append(table string, rows [][]any) (epoch uint64, total int, err error) {
	resp, err := c.Do(Request{Op: OpAppend, Table: table, Rows: rows})
	if err != nil {
		return 0, 0, err
	}
	return resp.Epoch, resp.Rows, nil
}

// Idle advances the session's virtual time with no touch activity.
func (c *Client) Idle(session string, d time.Duration) error {
	_, err := c.Do(Request{Op: OpIdle, Session: session, Idle: d})
	return err
}

// Resume re-materializes an evicted or crashed session from the
// server's persisted request log, returning how many logged requests
// the server replayed. Resuming a session that is already live succeeds
// with 0. Requires a server running with session durability
// (dbtouch-serve -session-dir).
func (c *Client) Resume(session string) (replayed int, err error) {
	resp, err := c.Do(Request{Op: OpResume, Session: session})
	return resp.Replayed, err
}

// Stats snapshots the server's session manager.
func (c *Client) Stats() (StatsFrame, error) {
	resp, err := c.Do(Request{Op: OpStats})
	if err != nil {
		return StatsFrame{}, err
	}
	if resp.Stats == nil {
		return StatsFrame{}, fmt.Errorf("protocol: stats response carried no stats")
	}
	return *resp.Stats, nil
}

// Stream subscribes to a session's live results and invokes fn for each
// frame until fn returns false, the context is cancelled, or the server
// closes the stream. buffer sizes the server-side ring (0 = default).
// The client offers the binary columnar encoding and falls back to v1
// NDJSON if the server predates it — either side can be older than the
// other, and fn sees identical frames regardless of which encoding won.
func (c *Client) Stream(ctx context.Context, session string, buffer int, fn func(ResultFrame) bool) error {
	return c.streamWith(ctx, session, buffer, BinaryContentType+", "+NDJSONContentType, fn)
}

// StreamResumed is Stream with transparent reconnect: when the stream
// drops — the server restarted, or the session was LRU-evicted and its
// subscriptions closed — the client resumes the session from its
// persisted log and reopens the stream, so fn keeps seeing frames
// across session death. Frames emitted while disconnected are not
// replayed (subscriptions observe results from the moment they attach);
// what reconnect guarantees is that the session's state continues
// exactly where its log left off. Returns nil when ctx is cancelled or
// fn returns false; a drop that cannot be resumed (session wire-evicted,
// server unreachable, durability disabled) returns the resume error.
func (c *Client) StreamResumed(ctx context.Context, session string, buffer int, fn func(ResultFrame) bool) error {
	accept := BinaryContentType + ", " + NDJSONContentType
	resumed := false
	attempt := 0
	for {
		fs, err := c.OpenStream(ctx, session, buffer, accept)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			if resumed {
				// A resume already happened and the stream still won't
				// open. With a retry policy, back off and try again (the
				// server may be mid-restart); otherwise surface.
				if c.Retry != nil && attempt < c.Retry.MaxAttempts() {
					if !c.Retry.wait(ctx, attempt, 0) {
						return nil
					}
					attempt++
					resumed = false
					continue
				}
				if c.Retry != nil {
					err = errors.Join(ErrRetriesExhausted, err)
				}
				return fmt.Errorf("protocol: stream %q after resume: %w", session, err)
			}
			if _, rerr := c.Resume(session); rerr != nil {
				return fmt.Errorf("protocol: resuming session %q: %w", session, rerr)
			}
			resumed = true
			continue
		}
		resumed = false
		attempt = 0
		for {
			frame, err := fs.Next()
			if err != nil {
				fs.Close()
				break // stream dropped: resume and reconnect below
			}
			if !fn(frame) {
				fs.Close()
				return nil
			}
		}
		if ctx.Err() != nil {
			return nil
		}
		if _, rerr := c.Resume(session); rerr != nil {
			return fmt.Errorf("protocol: resuming session %q: %w", session, rerr)
		}
		resumed = true
	}
}

func (c *Client) streamWith(ctx context.Context, session string, buffer int, accept string, fn func(ResultFrame) bool) error {
	fs, err := c.OpenStream(ctx, session, buffer, accept)
	if err != nil {
		return err
	}
	defer fs.Close()
	for {
		frame, err := fs.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("protocol: stream frame: %w", err)
		}
		if !fn(frame) {
			return nil
		}
	}
}
