package script

import (
	"fmt"

	"dbtouch"
	"dbtouch/internal/protocol"
)

// Object returns a named object created by the script.
func (r *Runner) Object(name string) (*dbtouch.Object, bool) {
	o, ok := r.objects[name]
	return o, ok
}

// Replay routes encoded requests through a protocol router (typically a
// session.Manager, local or behind HTTP glue), collecting the frames
// that perform requests produce — the "replay" half of record/replay.
// The session must already be open; replay stops at the first failed
// response.
func Replay(router protocol.Router, reqs []protocol.Request) ([]protocol.ResultFrame, error) {
	var frames []protocol.ResultFrame
	for i, req := range reqs {
		resp := router.HandleRequest(req)
		if !resp.OK {
			return frames, fmt.Errorf("script: replaying request %d (%s): %s", i, req.Op, resp.Error)
		}
		frames = append(frames, resp.Results...)
	}
	return frames, nil
}
