// Package core implements the dbTouch kernel — the paper's primary
// contribution. The kernel sits between the (simulated) touch operating
// system and the storage substrates (Figure 3): once a touch is
// registered, the kernel maps it to data and executes the configured
// exploration operators, charging all work to a virtual clock. Contrary to
// a traditional engine, the flow runs *per touch*, not per query: the user
// controls the data flow, the kernel reacts. Slide steps execute
// span-at-a-time — each delivered touch covers the whole tuple range swept
// since the previous one and dispatches it through the storage range
// kernels; there is no tuple-at-a-time path.
//
// One kernel is one exploration session's mutable world: clock, screen,
// dispatcher, objects, trackers, result log. The storage it reads
// (catalog, columns, sample hierarchies) can be shared immutably across
// many kernels — internal/session builds the multi-user layer on exactly
// that split.
package core

import (
	"fmt"

	"dbtouch/internal/operator"
)

// Mode selects what a touch on a data object does — the "query actions"
// the user enables before starting a gesture (paper §2.3: "users define
// the query they wish to run by choosing a few query actions... and then
// they start a slide gesture").
type Mode uint8

// Touch modes.
const (
	// ModeScan delivers the raw value under the finger.
	ModeScan Mode = iota
	// ModeAggregate maintains a running aggregate over all touched
	// entries, continuously updated as the gesture evolves.
	ModeAggregate
	// ModeSummary computes an interactive summary: a window aggregate
	// over [id−k, id+k] per touch (paper §2.7).
	ModeSummary
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeScan:
		return "scan"
	case ModeAggregate:
		return "aggregate"
	case ModeSummary:
		return "summary"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// GroupSpec configures incremental grouping: touched tuples contribute
// value-column entries to the group of their key-column entry.
type GroupSpec struct {
	KeyCol int
	ValCol int
	Agg    operator.AggKind
}

// JoinSpec configures a slide-driven join between this object's column
// and another object's column. Touches on either object feed the
// symmetric (non-blocking) hash join.
type JoinSpec struct {
	// OtherObject is the id of the partner data object.
	OtherObject int
	// Side is this object's role: "left" or "right".
	Side JoinSide
}

// JoinSide labels which input of the join an object feeds.
type JoinSide uint8

// Join sides.
const (
	JoinLeft JoinSide = iota
	JoinRight
)

// Actions is the per-object query configuration driving what every touch
// executes.
type Actions struct {
	Mode Mode
	// Agg is the aggregate function for ModeAggregate and ModeSummary.
	Agg operator.AggKind
	// SummaryK is the summary half-window (ModeSummary); 2K+1 entries
	// contribute to each summary value.
	SummaryK int
	// Filters are WHERE conjuncts evaluated per touched tuple; tuples
	// failing the filters produce no result (paper §2.9: "perform
	// selections by posing a where restriction to the scan").
	Filters []operator.Predicate
	// ValueOrder slides in value order through the per-level sorted
	// index instead of position order — the index-scan equivalent
	// (paper §2.6 "Indexing").
	ValueOrder bool
	// Group enables incremental grouping.
	Group *GroupSpec
	// Join enables a slide-driven symmetric join.
	Join *JoinSpec
}

// DefaultActions returns the exploratory default: interactive summaries
// with an average aggregation — "a good default choice" (paper §2.7) —
// and k=10 as in the paper's evaluation.
func DefaultActions() Actions {
	return Actions{Mode: ModeSummary, Agg: operator.Avg, SummaryK: 10}
}
