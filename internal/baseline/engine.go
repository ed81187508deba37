package baseline

import (
	"fmt"
	"sort"
	"time"

	"dbtouch/internal/iomodel"
	"dbtouch/internal/operator"
	"dbtouch/internal/storage"
	"dbtouch/internal/vclock"
)

// ResultSet is a fully materialized query answer — the monolithic
// contract of a traditional engine: nothing is visible until everything
// is computed.
type ResultSet struct {
	Columns []string
	Rows    [][]storage.Value
	// Elapsed is the virtual time the query consumed.
	Elapsed time.Duration
}

// Engine is the traditional column-store engine used as the contest
// baseline. It owns its own catalog view and per-column access trackers
// sharing the dbTouch cost model.
type Engine struct {
	clock    *vclock.Clock
	catalog  *storage.Catalog
	params   iomodel.Params
	trackers map[string]*iomodel.Tracker
	queries  int64
}

// New returns an engine on the given clock and cost parameters.
func New(clock *vclock.Clock, params iomodel.Params) *Engine {
	return &Engine{
		clock:    clock,
		catalog:  storage.NewCatalog(),
		params:   params,
		trackers: make(map[string]*iomodel.Tracker),
	}
}

// Register loads a matrix into the engine's catalog. Row-major matrixes
// are accepted; a real column store would convert, and so do we (charged
// as load time, not query time — both systems in the contest start
// loaded).
func (e *Engine) Register(m *storage.Matrix) error {
	cm, err := m.ToLayout(storage.ColumnMajor)
	if err != nil {
		return err
	}
	e.catalog.Register(cm)
	return nil
}

// TotalStats aggregates access statistics across all column trackers.
func (e *Engine) TotalStats() iomodel.Stats {
	var total iomodel.Stats
	for _, t := range e.trackers {
		s := t.Stats()
		total.ColdFetches += s.ColdFetches
		total.WarmHits += s.WarmHits
		total.ValuesRead += s.ValuesRead
		total.BytesRead += s.BytesRead
		total.Evictions += s.Evictions
	}
	return total
}

// tracker returns the per-column tracker for table.col.
func (e *Engine) tracker(table, col string) *iomodel.Tracker {
	key := table + "." + col
	t, ok := e.trackers[key]
	if !ok {
		t = iomodel.New(e.clock, e.params, nil)
		e.trackers[key] = t
	}
	return t
}

// Query parses and executes sql, returning the materialized result.
func (e *Engine) Query(sql string) (*ResultSet, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.Execute(stmt)
}

// Execute runs a parsed statement.
func (e *Engine) Execute(stmt *SelectStmt) (*ResultSet, error) {
	e.queries++
	start := e.clock.Now()
	left, err := e.catalog.Get(stmt.From)
	if err != nil {
		return nil, err
	}

	// Stage 1: filter the FROM table with a full scan over the predicate
	// columns (a traditional engine has full control of data flow and
	// consumes everything).
	leftRows, err := e.filterScan(left, stmt.From, stmt.Where)
	if err != nil {
		return nil, err
	}

	var rs *ResultSet
	if stmt.Join != nil {
		rs, err = e.executeJoin(stmt, left, leftRows)
	} else if stmt.GroupBy != nil {
		rs, err = e.executeGroupBy(stmt, left, leftRows)
	} else if len(stmt.Items) > 0 && stmt.Items[0].IsAgg {
		rs, err = e.executeAggregate(stmt, left, leftRows)
	} else {
		rs, err = e.executeProject(stmt, left, leftRows)
	}
	if err != nil {
		return nil, err
	}
	e.orderAndLimit(stmt, rs)
	rs.Elapsed = e.clock.Now() - start
	return rs, nil
}

// filterScan evaluates WHERE conjuncts for the named table with full
// column scans and returns the passing row ids. Conditions qualified with
// another table name are ignored (join conditions handle those).
func (e *Engine) filterScan(m *storage.Matrix, table string, conds []Condition) ([]int, error) {
	n := m.NumRows()
	var mine []Condition
	for _, c := range conds {
		if c.Col.Table == "" || c.Col.Table == table {
			mine = append(mine, c)
		}
	}
	if len(mine) == 0 {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all, nil
	}
	type boundCond struct {
		col     *storage.Column
		tracker *iomodel.Tracker
		op      operator.CmpOp
		operand storage.Value
	}
	bound := make([]boundCond, len(mine))
	for i, c := range mine {
		idx := m.ColumnIndex(c.Col.Column)
		if idx < 0 {
			return nil, fmt.Errorf("baseline: table %q has no column %q", table, c.Col.Column)
		}
		col, err := m.Column(idx)
		if err != nil {
			return nil, err
		}
		bound[i] = boundCond{col: col, tracker: e.tracker(table, c.Col.Column), op: c.Op, operand: c.Operand}
	}
	var out []int
	for r := 0; r < n; r++ {
		pass := true
		for _, b := range bound {
			b.tracker.Access(r)
			if !b.op.Apply(b.col.Value(r), b.operand) {
				pass = false
				break
			}
		}
		if pass {
			out = append(out, r)
		}
	}
	return out, nil
}

// executeProject materializes SELECT cols / SELECT *.
func (e *Engine) executeProject(stmt *SelectStmt, m *storage.Matrix, rows []int) (*ResultSet, error) {
	var cols []int
	var names []string
	if stmt.Star {
		for i, cm := range m.Schema() {
			cols = append(cols, i)
			names = append(names, cm.Name)
		}
	} else {
		for _, it := range stmt.Items {
			if it.IsAgg {
				return nil, fmt.Errorf("baseline: mixing aggregates and plain columns requires GROUP BY")
			}
			idx := m.ColumnIndex(it.Col.Column)
			if idx < 0 {
				return nil, fmt.Errorf("baseline: no column %q in %q", it.Col.Column, stmt.From)
			}
			cols = append(cols, idx)
			names = append(names, it.Name())
		}
	}
	rs := &ResultSet{Columns: names}
	limit := stmt.Limit
	for _, r := range rows {
		if limit >= 0 && len(rs.Rows) >= limit && stmt.OrderBy == nil {
			break
		}
		row := make([]storage.Value, len(cols))
		for i, c := range cols {
			e.tracker(stmt.From, m.Schema()[c].Name).Access(r)
			v, err := m.At(r, c)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		rs.Rows = append(rs.Rows, row)
	}
	return rs, nil
}

// executeAggregate computes grand aggregates over the passing rows.
func (e *Engine) executeAggregate(stmt *SelectStmt, m *storage.Matrix, rows []int) (*ResultSet, error) {
	aggs := make([]*operator.RunningAgg, len(stmt.Items))
	cols := make([]int, len(stmt.Items))
	names := make([]string, len(stmt.Items))
	for i, it := range stmt.Items {
		if !it.IsAgg {
			return nil, fmt.Errorf("baseline: plain column %q without GROUP BY", it.Name())
		}
		aggs[i] = operator.NewRunningAgg(it.Agg)
		names[i] = it.Name()
		if it.Star {
			cols[i] = -1
			continue
		}
		idx := m.ColumnIndex(it.Col.Column)
		if idx < 0 {
			return nil, fmt.Errorf("baseline: no column %q in %q", it.Col.Column, stmt.From)
		}
		cols[i] = idx
	}
	for _, r := range rows {
		for i, c := range cols {
			if c < 0 {
				aggs[i].Add(1)
				continue
			}
			e.tracker(stmt.From, m.Schema()[c].Name).Access(r)
			col, err := m.Column(c)
			if err != nil {
				return nil, err
			}
			aggs[i].Add(col.Float(r))
		}
	}
	row := make([]storage.Value, len(aggs))
	for i, a := range aggs {
		row[i] = storage.FloatValue(a.Value())
	}
	return &ResultSet{Columns: names, Rows: [][]storage.Value{row}}, nil
}

// executeGroupBy computes grouped aggregates.
func (e *Engine) executeGroupBy(stmt *SelectStmt, m *storage.Matrix, rows []int) (*ResultSet, error) {
	keyIdx := m.ColumnIndex(stmt.GroupBy.Column)
	if keyIdx < 0 {
		return nil, fmt.Errorf("baseline: no group column %q in %q", stmt.GroupBy.Column, stmt.From)
	}
	keyCol, err := m.Column(keyIdx)
	if err != nil {
		return nil, err
	}
	keyTracker := e.tracker(stmt.From, stmt.GroupBy.Column)

	type aggSpec struct {
		col     *storage.Column
		tracker *iomodel.Tracker
		kind    operator.AggKind
		star    bool
	}
	var specs []aggSpec
	names := []string{stmt.GroupBy.Column}
	keyOut := -1
	for i, it := range stmt.Items {
		if !it.IsAgg {
			if it.Col.Column != stmt.GroupBy.Column {
				return nil, fmt.Errorf("baseline: non-grouped column %q in GROUP BY query", it.Col.Column)
			}
			keyOut = i
			continue
		}
		spec := aggSpec{kind: it.Agg, star: it.Star}
		if !it.Star {
			idx := m.ColumnIndex(it.Col.Column)
			if idx < 0 {
				return nil, fmt.Errorf("baseline: no column %q in %q", it.Col.Column, stmt.From)
			}
			c, err := m.Column(idx)
			if err != nil {
				return nil, err
			}
			spec.col = c
			spec.tracker = e.tracker(stmt.From, it.Col.Column)
		}
		specs = append(specs, spec)
		names = append(names, it.Name())
	}
	_ = keyOut
	groups := make(map[string][]*operator.RunningAgg)
	keyVals := make(map[string]storage.Value)
	for _, r := range rows {
		keyTracker.Access(r)
		kv := keyCol.Value(r)
		key := kv.String()
		aggs, ok := groups[key]
		if !ok {
			aggs = make([]*operator.RunningAgg, len(specs))
			for i, s := range specs {
				aggs[i] = operator.NewRunningAgg(s.kind)
			}
			groups[key] = aggs
			keyVals[key] = kv
		}
		for i, s := range specs {
			if s.star {
				aggs[i].Add(1)
				continue
			}
			s.tracker.Access(r)
			aggs[i].Add(s.col.Float(r))
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rs := &ResultSet{Columns: names}
	for _, k := range keys {
		row := []storage.Value{keyVals[k]}
		for _, a := range groups[k] {
			row = append(row, storage.FloatValue(a.Value()))
		}
		rs.Rows = append(rs.Rows, row)
	}
	return rs, nil
}

// executeJoin runs the blocking hash join: build the full right side,
// probe with the filtered left rows, then project/aggregate.
func (e *Engine) executeJoin(stmt *SelectStmt, left *storage.Matrix, leftRows []int) (*ResultSet, error) {
	right, err := e.catalog.Get(stmt.Join.Table)
	if err != nil {
		return nil, err
	}
	rightRows, err := e.filterScan(right, stmt.Join.Table, stmt.Where)
	if err != nil {
		return nil, err
	}
	leftIdx := left.ColumnIndex(stmt.Join.LeftCol.Column)
	rightIdx := right.ColumnIndex(stmt.Join.RightCol.Column)
	if leftIdx < 0 || rightIdx < 0 {
		return nil, fmt.Errorf("baseline: join columns %s/%s not found", stmt.Join.LeftCol, stmt.Join.RightCol)
	}
	leftCol, err := left.Column(leftIdx)
	if err != nil {
		return nil, err
	}
	rightCol, err := right.Column(rightIdx)
	if err != nil {
		return nil, err
	}
	// Blocking build over the (filtered) right side.
	buildTracker := e.tracker(stmt.Join.Table, stmt.Join.RightCol.Column)
	table := make(map[float64][]int)
	for _, r := range rightRows {
		buildTracker.Access(r)
		table[rightCol.Float(r)] = append(table[rightCol.Float(r)], r)
	}
	probeTracker := e.tracker(stmt.From, stmt.Join.LeftCol.Column)

	// COUNT(*) fast path; otherwise project joined pairs.
	countOnly := len(stmt.Items) == 1 && stmt.Items[0].IsAgg && stmt.Items[0].Star && stmt.Items[0].Agg == operator.Count
	var matches int64
	rs := &ResultSet{}
	if countOnly {
		rs.Columns = []string{stmt.Items[0].Name()}
	} else {
		rs.Columns = []string{stmt.From + ".row", stmt.Join.Table + ".row", "key"}
	}
	limit := stmt.Limit
	for _, l := range leftRows {
		probeTracker.Access(l)
		key := leftCol.Float(l)
		for _, r := range table[key] {
			matches++
			if countOnly {
				continue
			}
			if limit >= 0 && len(rs.Rows) >= limit {
				continue
			}
			rs.Rows = append(rs.Rows, []storage.Value{
				storage.IntValue(int64(l)), storage.IntValue(int64(r)), storage.FloatValue(key),
			})
		}
	}
	if countOnly {
		rs.Rows = [][]storage.Value{{storage.FloatValue(float64(matches))}}
	}
	return rs, nil
}

// orderAndLimit applies ORDER BY and LIMIT to a materialized result.
func (e *Engine) orderAndLimit(stmt *SelectStmt, rs *ResultSet) {
	if stmt.OrderBy != nil {
		col := -1
		for i, name := range rs.Columns {
			if name == stmt.OrderBy.Col.Column || name == stmt.OrderBy.Col.String() {
				col = i
				break
			}
		}
		if col >= 0 {
			desc := stmt.OrderBy.Desc
			sort.SliceStable(rs.Rows, func(a, b int) bool {
				c := rs.Rows[a][col].Compare(rs.Rows[b][col])
				if desc {
					return c > 0
				}
				return c < 0
			})
		}
	}
	if stmt.Limit >= 0 && len(rs.Rows) > stmt.Limit {
		rs.Rows = rs.Rows[:stmt.Limit]
	}
}
