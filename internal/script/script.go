// Package script implements a tiny exploration-session language so demo
// sessions can be recorded, replayed and shipped as text files — the
// reproduction's stand-in for a human driving the iPad prototype.
//
// Syntax (one command per line, '#' starts a comment):
//
//	column NAME TABLE COL X Y W H   place a column object
//	table  NAME TABLE     X Y W H   place a table object
//	scan NAME                       configure raw-value touches
//	aggregate NAME AGG              configure a running aggregate
//	summarize NAME AGG K            configure interactive summaries
//	where NAME COL OP VALUE         add a WHERE conjunct
//	valueorder NAME on|off          toggle value-order slides
//	slide NAME DUR [FROM TO]        slide (fractions of height, default 0 1)
//	tap NAME FRAC                   tap at fractional height
//	zoomin NAME FACTOR              pinch zoom in
//	zoomout NAME FACTOR             pinch zoom out
//	rotate NAME                     quarter-turn rotation
//	moveto NAME X Y                 reposition
//	pin NAME NEW X Y W H            promote the hottest region as NEW
//	idle DUR                        lift the finger for DUR
//	render                          print the screen
//
// Durations use Go syntax (2s, 500ms). Aggregates: count sum avg min max
// var stddev. Operators: = <> < <= > >=.
//
// Scripts also travel: Encode translates parsed commands into versioned
// protocol requests (internal/protocol) and Replay routes them through a
// session manager — the same text file drives a local kernel or a remote
// dbtouch-serve identically.
package script

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"dbtouch"
	"dbtouch/internal/operator"
	"dbtouch/internal/viz"
)

// Command is one parsed script line.
type Command struct {
	// Line is the 1-based source line (for error messages).
	Line int
	// Op is the command name, lowercased.
	Op string
	// Args are the remaining fields.
	Args []string
}

// Parse reads a script into commands, dropping comments and blank lines.
func Parse(r io.Reader) ([]Command, error) {
	var out []Command
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		out = append(out, Command{Line: line, Op: strings.ToLower(fields[0]), Args: fields[1:]})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("script: reading: %w", err)
	}
	return out, nil
}

// Runner executes commands against a DB, tracking named objects.
type Runner struct {
	DB *dbtouch.DB
	// Out receives render output and per-gesture summaries; nil discards.
	Out io.Writer

	objects map[string]*dbtouch.Object
}

// NewRunner returns a runner over db writing to out.
func NewRunner(db *dbtouch.DB, out io.Writer) *Runner {
	return &Runner{DB: db, Out: out, objects: make(map[string]*dbtouch.Object)}
}

// Run executes all commands, stopping at the first error.
func (r *Runner) Run(commands []Command) error {
	for _, c := range commands {
		if err := r.exec(c); err != nil {
			return fmt.Errorf("script line %d (%s): %w", c.Line, c.Op, err)
		}
	}
	return nil
}

func (r *Runner) printf(format string, args ...any) {
	if r.Out != nil {
		fmt.Fprintf(r.Out, format, args...)
	}
}

func (r *Runner) exec(c Command) error {
	switch c.Op {
	case "column":
		if len(c.Args) != 7 {
			return fmt.Errorf("want NAME TABLE COL X Y W H, got %d args", len(c.Args))
		}
		geo, err := floats(c.Args[3:7])
		if err != nil {
			return err
		}
		obj, err := r.DB.NewColumnObject(c.Args[1], c.Args[2], geo[0], geo[1], geo[2], geo[3])
		if err != nil {
			return err
		}
		r.objects[c.Args[0]] = obj
		return nil
	case "table":
		if len(c.Args) != 6 {
			return fmt.Errorf("want NAME TABLE X Y W H, got %d args", len(c.Args))
		}
		geo, err := floats(c.Args[2:6])
		if err != nil {
			return err
		}
		obj, err := r.DB.NewTableObject(c.Args[1], geo[0], geo[1], geo[2], geo[3])
		if err != nil {
			return err
		}
		r.objects[c.Args[0]] = obj
		return nil
	case "scan":
		obj, err := r.object(c.Args, 1)
		if err != nil {
			return err
		}
		obj.Scan()
		return nil
	case "aggregate":
		obj, err := r.object(c.Args, 2)
		if err != nil {
			return err
		}
		agg, err := parseAgg(c.Args[1])
		if err != nil {
			return err
		}
		obj.Aggregate(agg)
		return nil
	case "summarize":
		obj, err := r.object(c.Args, 3)
		if err != nil {
			return err
		}
		agg, err := parseAgg(c.Args[1])
		if err != nil {
			return err
		}
		k, err := strconv.Atoi(c.Args[2])
		if err != nil || k < 0 {
			return fmt.Errorf("bad k %q", c.Args[2])
		}
		obj.Summarize(agg, k)
		return nil
	case "where":
		obj, err := r.object(c.Args, 4)
		if err != nil {
			return err
		}
		val, err := strconv.ParseFloat(c.Args[3], 64)
		if err != nil {
			return obj.Where(c.Args[1], c.Args[2], c.Args[3])
		}
		return obj.Where(c.Args[1], c.Args[2], val)
	case "valueorder":
		obj, err := r.object(c.Args, 2)
		if err != nil {
			return err
		}
		on, err := parseOnOff(c.Args[1])
		if err != nil {
			return err
		}
		obj.ValueOrder(on)
		return nil
	case "slide":
		if len(c.Args) != 2 && len(c.Args) != 4 {
			return fmt.Errorf("want NAME DUR [FROM TO], got %d args", len(c.Args))
		}
		obj, ok := r.objects[c.Args[0]]
		if !ok {
			return fmt.Errorf("unknown object %q", c.Args[0])
		}
		dur, err := time.ParseDuration(c.Args[1])
		if err != nil {
			return fmt.Errorf("bad duration %q", c.Args[1])
		}
		from, to := 0.0, 1.0
		if len(c.Args) == 4 {
			fs, err := floats(c.Args[2:4])
			if err != nil {
				return err
			}
			from, to = fs[0], fs[1]
		}
		results := obj.SlideRange(from, to, dur)
		r.printf("slide: %d results in %v\n", len(results), dur)
		return nil
	case "tap":
		obj, err := r.object(c.Args, 2)
		if err != nil {
			return err
		}
		frac, err := strconv.ParseFloat(c.Args[1], 64)
		if err != nil {
			return fmt.Errorf("bad fraction %q", c.Args[1])
		}
		for _, res := range obj.Tap(frac) {
			r.printf("tap: %s\n", res.String())
		}
		return nil
	case "zoomin", "zoomout":
		obj, err := r.object(c.Args, 2)
		if err != nil {
			return err
		}
		factor, err := strconv.ParseFloat(c.Args[1], 64)
		if err != nil || factor <= 0 {
			return fmt.Errorf("bad factor %q", c.Args[1])
		}
		if c.Op == "zoomin" {
			obj.ZoomIn(factor)
		} else {
			obj.ZoomOut(factor)
		}
		return nil
	case "rotate":
		obj, err := r.object(c.Args, 1)
		if err != nil {
			return err
		}
		obj.RotateQuarter()
		return nil
	case "moveto":
		obj, err := r.object(c.Args, 3)
		if err != nil {
			return err
		}
		xy, err := floats(c.Args[1:3])
		if err != nil {
			return err
		}
		obj.MoveTo(xy[0], xy[1])
		return nil
	case "pin":
		if len(c.Args) != 6 {
			return fmt.Errorf("want NAME NEW X Y W H, got %d args", len(c.Args))
		}
		obj, err := r.object(c.Args, 6)
		if err != nil {
			return err
		}
		geo, err := floats(c.Args[2:6])
		if err != nil {
			return err
		}
		pinned, err := obj.PinHotRegion(geo[0], geo[1], geo[2], geo[3])
		if err != nil {
			return err
		}
		r.objects[c.Args[1]] = pinned
		r.printf("pin: %s = %d rows\n", c.Args[1], pinned.Rows())
		return nil
	case "idle":
		if len(c.Args) != 1 {
			return fmt.Errorf("want DUR")
		}
		dur, err := time.ParseDuration(c.Args[0])
		if err != nil {
			return fmt.Errorf("bad duration %q", c.Args[0])
		}
		r.DB.Idle(dur)
		return nil
	case "render":
		r.printf("%s", viz.Render(
			r.DB.Kernel().Screen(), r.DB.Kernel().Objects(), r.DB.Results(), r.DB.Now()))
		return nil
	default:
		return fmt.Errorf("unknown command %q", c.Op)
	}
}

// object resolves Args[0] to an object, validating arity.
func (r *Runner) object(args []string, want int) (*dbtouch.Object, error) {
	if len(args) != want {
		return nil, fmt.Errorf("want %d args, got %d", want, len(args))
	}
	obj, ok := r.objects[args[0]]
	if !ok {
		return nil, fmt.Errorf("unknown object %q", args[0])
	}
	return obj, nil
}

func floats(args []string) ([]float64, error) {
	out := make([]float64, len(args))
	for i, a := range args {
		f, err := strconv.ParseFloat(a, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", a)
		}
		out[i] = f
	}
	return out, nil
}

// parseAgg resolves an aggregate name, case-insensitively, through the
// canonical operator table.
func parseAgg(s string) (dbtouch.AggKind, error) {
	return operator.ParseAggKind(strings.ToLower(s))
}
