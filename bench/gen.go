package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"dbtouch/internal/protocol"
	"dbtouch/internal/script"
	"dbtouch/internal/storage"
)

// Every input is a pure function of the run seed: the servers receive
// only what is generated here, through -csv, -live and the wire.

// subSeed derives an independent stream for one purpose (a table, one
// client's script) so adding a consumer never shifts another's inputs.
func subSeed(seed int64, salt string) *rand.Rand {
	h := uint64(seed)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	for _, b := range []byte(salt) {
		h = (h ^ uint64(b)) * 0x100000001B3
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// table is one generated static table: the CSV file the servers load and
// the identical in-process matrix the control and the traced twins run on.
type table struct {
	name   string
	csv    string
	matrix *storage.Matrix
}

// stringKeys is the dictionary of the generated STRING column; the
// operand keyMid splits it in half under string order.
const (
	stringKeys = 64
	keyMid     = "k32"
)

// keyNames is the STRING column's dictionary: two digits, so string
// order is numeric order.
var keyNames = func() (out [stringKeys]string) {
	for k := range out {
		out[k] = fmt.Sprintf("k%02d", k)
	}
	return out
}()

// genTable writes a seeded table as CSV and builds the same matrix in
// process. Columns are appended value by value, as storage.ReadCSV does,
// so dictionary codes match the server's. Floats carry three decimals so
// their text form parses back to the identical float64.
func genTable(dir, name string, rows int, schema string, seed int64) (*table, error) {
	rng := subSeed(seed, "table:"+name)
	var cols []*storage.Column
	for _, field := range strings.Split(schema, ",") {
		colName, typeName, _ := strings.Cut(field, ":")
		typ, err := storage.ParseType(typeName)
		if err != nil {
			return nil, err
		}
		cols = append(cols, storage.NewEmptyColumn(colName, typ))
	}
	path := fmt.Sprintf("%s/%s.csv", dir, name)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString(schema)
	w.WriteByte('\n')
	var line []byte
	for r := 0; r < rows; r++ {
		line = line[:0]
		for c, col := range cols {
			if c > 0 {
				line = append(line, ',')
			}
			switch col.Type() {
			case storage.Int64:
				v := rng.Int63n(1_000_000)
				col.Append(storage.IntValue(v))
				line = strconv.AppendInt(line, v, 10)
			case storage.Float64:
				v := float64(rng.Int63n(1_000_000)) / 1000
				col.Append(storage.FloatValue(v))
				line = strconv.AppendFloat(line, v, 'f', 3, 64)
			default:
				s := keyNames[rng.Intn(stringKeys)]
				col.Append(storage.StringValue(s))
				line = append(line, s...)
			}
		}
		line = append(line, '\n')
		w.Write(line)
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	m, err := storage.NewMatrix(name, cols...)
	if err != nil {
		return nil, err
	}
	return &table{name: name, csv: path, matrix: m}, nil
}

// step is one scripted request with the latency class it reports under
// (an index into latencyKinds).
type step struct {
	kind int8
	req  protocol.Request
}

// gestureScript is one client's recorded session: the requests that set
// the session up (open, create, configure) and the gesture loop that is
// replayed until the session rotates.
type gestureScript struct {
	setup []protocol.Request
	loop  []step
}

// compile parses script text and encodes it for the wire through
// internal/script, exactly as a recorded session file would be. Lines
// before the "# loop" marker are set-up; kinds label the loop's commands
// one for one.
func compile(text string, kinds []string) (*gestureScript, error) {
	head, body, ok := strings.Cut(text, "# loop\n")
	if !ok {
		return nil, fmt.Errorf("script has no loop marker")
	}
	encode := func(src string) ([]protocol.Request, error) {
		cmds, err := script.Parse(strings.NewReader(src))
		if err != nil {
			return nil, err
		}
		return script.Encode(cmds, "")
	}
	setup, err := encode(head)
	if err != nil {
		return nil, err
	}
	reqs, err := encode(body)
	if err != nil {
		return nil, err
	}
	if len(reqs) != len(kinds) {
		return nil, fmt.Errorf("script loop has %d requests for %d kinds", len(reqs), len(kinds))
	}
	gs := &gestureScript{setup: setup}
	for i, r := range reqs {
		k := kindIndex(kinds[i])
		if k < 0 {
			return nil, fmt.Errorf("script loop uses unknown latency class %q", kinds[i])
		}
		gs.loop = append(gs.loop, step{kind: k, req: r})
	}
	return gs, nil
}

// touchScript is the touch_direct / fleet_durable session: a summary
// explorer tapping and flicking over one FLOAT column. The mix is exact
// (70 % taps, 25 % half-second slides, 5 % zooms in in/out pairs) so
// seeds differ in where the finger lands, not in how much work a pass
// holds.
func touchScript(seed int64, client int) (*gestureScript, error) {
	rng := subSeed(seed, fmt.Sprintf("touch:%d", client))
	const taps, slides, pairs = 140, 50, 5
	type g struct{ kind, line string }
	body := make([]g, 0, taps+slides)
	for i := 0; i < taps; i++ {
		body = append(body, g{"tap", fmt.Sprintf("tap o %.4f", rng.Float64())})
	}
	for i := 0; i < slides; i++ {
		from := rng.Float64() * 0.7
		to := from + 0.1 + rng.Float64()*0.2
		if rng.Intn(2) == 0 {
			from, to = to, from
		}
		body = append(body, g{"slide", fmt.Sprintf("slide o 500ms %.4f %.4f", from, to)})
	}
	rng.Shuffle(len(body), func(i, j int) { body[i], body[j] = body[j], body[i] })
	// Each zoom pair brackets a short run of gestures, so some taps and
	// slides land on a magnified object; pairs never nest.
	seg := len(body) / pairs
	var sb strings.Builder
	var kinds []string
	sb.WriteString("column o t v 2 2 2 10\nsummarize o avg 10\n# loop\n")
	for i, b := range body {
		if i%seg == 0 && i/seg < pairs {
			fmt.Fprintf(&sb, "zoomin o 1.5\n")
			kinds = append(kinds, "zoom")
		}
		sb.WriteString(b.line + "\n")
		kinds = append(kinds, b.kind)
		if i%seg == 3 && i/seg < pairs {
			fmt.Fprintf(&sb, "zoomout o 1.5\n")
			kinds = append(kinds, "zoom")
		}
	}
	return compile(sb.String(), kinds)
}

// scanObjects are scan_direct's four filtered aggregates over the big
// table, each with one ~50 %-selective conjunct on the aggregated column.
var scanObjects = []struct{ name, kind, col, agg, op, operand string }{
	{"isum", "fsum_int", "i", "sum", "<", "500000"},
	{"imax", "fmax_int", "i", "max", "<", "500000"},
	{"fsum", "fsum_float", "f", "sum", "<", "500"},
	{"scount", "fcount_string", "s", "count", "<", keyMid},
}

// scanScript is the scan_direct session: full-height two-second slides
// in aggregate mode, equal counts per filtered kind, plus two zoomed
// sub-range slides per kind. A pass is 16 full slides, then 8 zooms and 8
// zoomed slides; by latency the int64 sums are its 15th to 18th op of 32,
// so the median perform sits inside one latency mode. The objects take
// turns in a fixed order: a slide costs less right after another over the
// same object, so a seeded order would move the median from seed to seed.
// The seed picks the data and the zoomed sub-ranges.
func scanScript(seed int64, client int) (*gestureScript, error) {
	rng := subSeed(seed, fmt.Sprintf("scan:%d", client))
	var sb strings.Builder
	for i, o := range scanObjects {
		fmt.Fprintf(&sb, "column %s big %s %d 2 2 10\n", o.name, o.col, 1+3*i)
		fmt.Fprintf(&sb, "aggregate %s %s\n", o.name, o.agg)
		fmt.Fprintf(&sb, "where %s %s %s %s\n", o.name, o.col, o.op, o.operand)
	}
	sb.WriteString("# loop\n")
	const fullPerKind = 4
	var kinds []string
	for i := 0; i < fullPerKind; i++ {
		for _, o := range scanObjects {
			fmt.Fprintf(&sb, "slide %s 2s\n", o.name)
			kinds = append(kinds, o.kind)
		}
	}
	// The zoomed tail: magnify an object, slide two seeded sub-ranges of
	// it, restore.
	for _, o := range scanObjects {
		a, b := rng.Float64()*0.5, rng.Float64()*0.5
		fmt.Fprintf(&sb, "zoomin %s 1.8\nslide %s 2s %.4f %.4f\nslide %s 2s %.4f %.4f\nzoomout %s 1.8\n",
			o.name, o.name, a, a+0.4, o.name, b+0.4, b, o.name)
		kinds = append(kinds, "zoom", o.kind, o.kind, "zoom")
	}
	return compile(sb.String(), kinds)
}

// liveSpec is stream_ingest's appendable table, in dbtouch-serve -live
// syntax.
const (
	liveTable = "events"
	liveSpec  = liveTable + ":ts=int,key=string,value=int"
	// liveValueCol is the column the explorer slides over.
	liveValueCol = 2
)

// ingestBatchRows is the size of one append request.
const ingestBatchRows = 1000

// ingestRing is how many distinct append batches the ingest client
// cycles through.
const ingestRing = 32

// ingestScript is the stream_ingest session: a scan-mode explorer
// sliding over the live value column, a 1000-row append before each
// 20 s-virtual slide. The first batch is part of set-up: a column object
// cannot be placed on an empty live table.
func ingestScript(seed int64, _ int) (*gestureScript, error) {
	gs, err := compile("column o "+liveTable+" value 2 2 2 10\nscan o\n# loop\nslide o 20s\n", []string{"scan_slide"})
	if err != nil {
		return nil, err
	}
	slide := gs.loop[0]
	gs.setup = append([]protocol.Request{ingestBatch(seed, 0)}, gs.setup...)
	gs.loop = nil
	for n := 1; n <= ingestRing; n++ {
		gs.loop = append(gs.loop, step{kind: kindIndex("append"), req: ingestBatch(seed, n)}, slide)
	}
	return gs, nil
}

// ingestBatch returns the n-th append request: timestamps advance by
// one per row across batches, keys and values are seeded.
func ingestBatch(seed int64, n int) protocol.Request {
	rng := subSeed(seed, fmt.Sprintf("ingest:%d", n))
	rows := make([][]any, ingestBatchRows)
	for r := range rows {
		rows[r] = []any{n*ingestBatchRows + r, keyNames[rng.Intn(stringKeys)], rng.Intn(1_000_000)}
	}
	return protocol.Request{V: protocol.Version, Op: protocol.OpAppend, Table: liveTable, Rows: rows}
}
