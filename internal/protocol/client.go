package protocol

import (
	"context"
	"fmt"
	"io"

	"dbtouch/internal/gesture"
)

// Convenience calls wrapping Client.Do, one per protocol op.

// Open creates a session on the server.
func (c *Client) Open(session string) error {
	_, err := c.Do(Request{Op: OpOpen, Session: session})
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
