package script

import (
	"fmt"
	"strconv"
	"time"

	"dbtouch/internal/gesture"
	"dbtouch/internal/protocol"
)

// Encode translates parsed script commands into versioned protocol
// requests driving the named session — the "record" half of
// record/replay over the wire. Every data-affecting command has a wire
// form; `render` is a local display command and is skipped. The encoding
// is lossless: replaying the requests through a session manager
// (Replay, or dbtouch-serve over HTTP) produces the same result stream
// as running the script directly (asserted by TestProtocolRoundTrip).
func Encode(commands []Command, session string) ([]protocol.Request, error) {
	var out []protocol.Request
	for _, c := range commands {
		reqs, err := encodeOne(c, session)
		if err != nil {
			return nil, fmt.Errorf("script line %d (%s): %w", c.Line, c.Op, err)
		}
		out = append(out, reqs...)
	}
	return out, nil
}

func encodeOne(c Command, session string) ([]protocol.Request, error) {
	one := func(r protocol.Request) []protocol.Request {
		r.V = protocol.Version
		r.Session = session
		return []protocol.Request{r}
	}
	configure := func(name string, spec protocol.ActionsSpec) []protocol.Request {
		return one(protocol.Request{Op: protocol.OpConfigure, Object: name, Actions: &spec})
	}
	perform := func(name string, g gesture.Gesture) []protocol.Request {
		return one(protocol.Request{Op: protocol.OpPerform, Object: name, Gesture: &g})
	}
	switch c.Op {
	case "column":
		if len(c.Args) != 7 {
			return nil, fmt.Errorf("want NAME TABLE COL X Y W H, got %d args", len(c.Args))
		}
		geo, err := floats(c.Args[3:7])
		if err != nil {
			return nil, err
		}
		return one(protocol.Request{Op: protocol.OpCreate, Object: c.Args[0], Create: &protocol.CreateSpec{
			Table: c.Args[1], Column: c.Args[2], X: geo[0], Y: geo[1], W: geo[2], H: geo[3],
		}}), nil
	case "table":
		if len(c.Args) != 6 {
			return nil, fmt.Errorf("want NAME TABLE X Y W H, got %d args", len(c.Args))
		}
		geo, err := floats(c.Args[2:6])
		if err != nil {
			return nil, err
		}
		return one(protocol.Request{Op: protocol.OpCreate, Object: c.Args[0], Create: &protocol.CreateSpec{
			Table: c.Args[1], X: geo[0], Y: geo[1], W: geo[2], H: geo[3],
		}}), nil
	case "scan":
		if len(c.Args) != 1 {
			return nil, fmt.Errorf("want NAME")
		}
		return configure(c.Args[0], protocol.ActionsSpec{Mode: "scan"}), nil
	case "aggregate":
		if len(c.Args) != 2 {
			return nil, fmt.Errorf("want NAME AGG")
		}
		if _, err := parseAgg(c.Args[1]); err != nil {
			return nil, err
		}
		return configure(c.Args[0], protocol.ActionsSpec{Mode: "aggregate", Agg: c.Args[1]}), nil
	case "summarize":
		if len(c.Args) != 3 {
			return nil, fmt.Errorf("want NAME AGG K")
		}
		if _, err := parseAgg(c.Args[1]); err != nil {
			return nil, err
		}
		k, err := strconv.Atoi(c.Args[2])
		if err != nil || k < 0 {
			return nil, fmt.Errorf("bad k %q", c.Args[2])
		}
		return configure(c.Args[0], protocol.ActionsSpec{Mode: "summary", Agg: c.Args[1], K: &k}), nil
	case "where":
		if len(c.Args) != 4 {
			return nil, fmt.Errorf("want NAME COL OP VALUE")
		}
		var value any = c.Args[3]
		if f, err := strconv.ParseFloat(c.Args[3], 64); err == nil {
			value = f
		}
		return configure(c.Args[0], protocol.ActionsSpec{Where: []protocol.FilterSpec{
			{Column: c.Args[1], Op: c.Args[2], Value: value},
		}}), nil
	case "valueorder":
		if len(c.Args) != 2 {
			return nil, fmt.Errorf("want NAME on|off")
		}
		on, err := parseOnOff(c.Args[1])
		if err != nil {
			return nil, err
		}
		return configure(c.Args[0], protocol.ActionsSpec{ValueOrder: &on}), nil
	case "slide":
		if len(c.Args) != 2 && len(c.Args) != 4 {
			return nil, fmt.Errorf("want NAME DUR [FROM TO], got %d args", len(c.Args))
		}
		dur, err := time.ParseDuration(c.Args[1])
		if err != nil {
			return nil, fmt.Errorf("bad duration %q", c.Args[1])
		}
		from, to := 0.0, 1.0
		if len(c.Args) == 4 {
			fs, err := floats(c.Args[2:4])
			if err != nil {
				return nil, err
			}
			from, to = fs[0], fs[1]
		}
		return perform(c.Args[0], gesture.NewSlide(0, from, to, dur)), nil
	case "tap":
		if len(c.Args) != 2 {
			return nil, fmt.Errorf("want NAME FRAC")
		}
		frac, err := strconv.ParseFloat(c.Args[1], 64)
		if err != nil {
			return nil, fmt.Errorf("bad fraction %q", c.Args[1])
		}
		return perform(c.Args[0], gesture.NewTap(0, frac)), nil
	case "zoomin", "zoomout":
		if len(c.Args) != 2 {
			return nil, fmt.Errorf("want NAME FACTOR")
		}
		factor, err := strconv.ParseFloat(c.Args[1], 64)
		if err != nil || factor <= 0 {
			return nil, fmt.Errorf("bad factor %q", c.Args[1])
		}
		if c.Op == "zoomout" {
			factor = 1 / factor
		}
		return perform(c.Args[0], gesture.NewZoom(0, factor)), nil
	case "rotate":
		if len(c.Args) != 1 {
			return nil, fmt.Errorf("want NAME")
		}
		return perform(c.Args[0], gesture.NewRotateQuarter(0)), nil
	case "moveto":
		if len(c.Args) != 3 {
			return nil, fmt.Errorf("want NAME X Y")
		}
		xy, err := floats(c.Args[1:3])
		if err != nil {
			return nil, err
		}
		return perform(c.Args[0], gesture.NewMove(0, xy[0], xy[1])), nil
	case "pin":
		if len(c.Args) != 6 {
			return nil, fmt.Errorf("want NAME NEW X Y W H, got %d args", len(c.Args))
		}
		geo, err := floats(c.Args[2:6])
		if err != nil {
			return nil, err
		}
		return one(protocol.Request{Op: protocol.OpPin, Object: c.Args[0], As: c.Args[1], Create: &protocol.CreateSpec{
			X: geo[0], Y: geo[1], W: geo[2], H: geo[3],
		}}), nil
	case "idle":
		if len(c.Args) != 1 {
			return nil, fmt.Errorf("want DUR")
		}
		dur, err := time.ParseDuration(c.Args[0])
		if err != nil {
			return nil, fmt.Errorf("bad duration %q", c.Args[0])
		}
		return one(protocol.Request{Op: protocol.OpIdle, Idle: dur}), nil
	case "render":
		// Local display only; nothing travels.
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown command %q", c.Op)
	}
}

func parseOnOff(s string) (bool, error) {
	switch s {
	case "on", "true", "1":
		return true, nil
	case "off", "false", "0":
		return false, nil
	default:
		return false, fmt.Errorf("bad toggle %q (want on|off)", s)
	}
}
