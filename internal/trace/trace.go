// Package trace records simulated execution timelines: every GEMM call,
// transform and DMA transfer with its start time and duration on the
// machine clock. Users diagnose schedules with it — above all whether
// double buffering actually hides the DMA channel behind the compute
// channel (the effect Fig. 10 measures).
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Kind classifies timeline events.
type Kind string

// Event kinds.
const (
	KindGemm      Kind = "gemm"
	KindDMA       Kind = "dma"
	KindTransform Kind = "transform"
	KindWait      Kind = "wait"
	// KindComm marks modeled cross-core-group communication (gathers,
	// pipeline stage hand-offs) on a fleet timeline.
	KindComm Kind = "comm"
)

// Event is one interval on the timeline.
type Event struct {
	Kind  Kind
	Label string
	Start float64 // seconds on the simulated clock
	Dur   float64
	// Group is the simulated core group the event executed on. Single-
	// machine timelines leave it 0; fleet timelines stamp it via
	// MergeGroup/AddGroup so parallel groups keep distinct rows in the
	// Gantt and distinct process tracks in the Chrome export.
	Group int
	// Args is optional span metadata (operator name, layer index, selected
	// strategy, ...) carried into the Chrome-trace export. Nil for plain
	// events; shared, not copied, by Merge.
	Args map[string]string
}

// Log accumulates events of one run.
type Log struct {
	Events []Event
}

// Add appends an event on group 0.
func (l *Log) Add(kind Kind, label string, start, dur float64) {
	l.Events = append(l.Events, Event{Kind: kind, Label: label, Start: start, Dur: dur})
}

// AddGroup appends an event on a specific core group.
func (l *Log) AddGroup(group int, kind Kind, label string, start, dur float64) {
	l.Events = append(l.Events, Event{Kind: kind, Label: label, Start: start, Dur: dur, Group: group})
}

// AddGroupArgs appends a group event carrying Args metadata. Comm events
// use it to label their source and destination groups ("src"/"dst"), which
// the fleet Gantt renders as a legend under the rows.
func (l *Log) AddGroupArgs(group int, kind Kind, label string, start, dur float64, args map[string]string) {
	l.Events = append(l.Events, Event{Kind: kind, Label: label, Start: start, Dur: dur, Group: group, Args: args})
}

// Len reports the event count.
func (l *Log) Len() int { return len(l.Events) }

// Annotate sets key=value in the Args of every event that does not already
// carry that key. The inference runtime uses it to stamp a per-layer log
// with the operator name, layer index and selected strategy before merging
// it onto the network timeline; existing keys win so inner annotations
// survive outer ones. Events without Args share one new map, so annotating
// a log costs one allocation, not one per event.
func (l *Log) Annotate(key, value string) {
	var shared map[string]string
	for i := range l.Events {
		ev := &l.Events[i]
		if ev.Args == nil {
			if shared == nil {
				shared = map[string]string{}
			}
			ev.Args = shared
		}
		if _, ok := ev.Args[key]; !ok {
			ev.Args[key] = value
		}
	}
}

// Merge appends shifted copies of the given logs' events into l: every
// event is moved by offset on the time axis, kinds, labels and durations
// untouched. Concatenating per-layer timelines into one network timeline is
// a sequence of merges, each layer at its start time on the network clock;
// a negative offset rebases an absolute timeline to its own origin. Because
// events are shifted rigidly, intra-layer structure — in particular the
// DMA/compute overlap double buffering creates — survives the merge.
func (l *Log) Merge(offset float64, others ...*Log) {
	for _, o := range others {
		if o == nil {
			continue
		}
		for _, ev := range o.Events {
			shifted := ev
			shifted.Start += offset
			l.Events = append(l.Events, shifted)
		}
	}
}

// MergeGroup merges like Merge but stamps every merged event with the
// given core-group index, overriding whatever group the source log
// carried. A fleet timeline is built by MergeGroup-ing each group's
// machine-local log at its fleet-clock offset: events from different
// groups then keep distinct rows in the Gantt and distinct process tracks
// in the Chrome export, while intra-group structure survives the rigid
// shift exactly as in Merge.
func (l *Log) MergeGroup(group int, offset float64, others ...*Log) {
	for _, o := range others {
		if o == nil {
			continue
		}
		for _, ev := range o.Events {
			shifted := ev
			shifted.Start += offset
			shifted.Group = group
			l.Events = append(l.Events, shifted)
		}
	}
}

// Groups returns the number of distinct core-group rows of the timeline:
// max event group + 1 (1 for an empty or single-machine log).
func (l *Log) Groups() int {
	maxG := 0
	for _, ev := range l.Events {
		if ev.Group > maxG {
			maxG = ev.Group
		}
	}
	return maxG + 1
}

// BusyTime returns the unioned busy time of one kind (overlapping events
// counted once).
func (l *Log) BusyTime(kind Kind) float64 {
	type span struct{ s, e float64 }
	var spans []span
	for _, ev := range l.Events {
		if ev.Kind == kind && ev.Dur > 0 {
			spans = append(spans, span{ev.Start, ev.Start + ev.Dur})
		}
	}
	if len(spans) == 0 {
		return 0
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].s < spans[j].s })
	total := 0.0
	cur := spans[0]
	for _, sp := range spans[1:] {
		if sp.s <= cur.e {
			if sp.e > cur.e {
				cur.e = sp.e
			}
			continue
		}
		total += cur.e - cur.s
		cur = sp
	}
	total += cur.e - cur.s
	return total
}

// Overlap returns the time during which both kinds were busy — the measure
// of how well prefetching hides memory latency.
func (l *Log) Overlap(a, b Kind) float64 {
	makeSpans := func(kind Kind) [][2]float64 {
		var out [][2]float64
		for _, ev := range l.Events {
			if ev.Kind == kind && ev.Dur > 0 {
				out = append(out, [2]float64{ev.Start, ev.Start + ev.Dur})
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
		return out
	}
	sa, sb := makeSpans(a), makeSpans(b)
	total := 0.0
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		lo := sa[i][0]
		if sb[j][0] > lo {
			lo = sb[j][0]
		}
		hi := sa[i][1]
		if sb[j][1] < hi {
			hi = sb[j][1]
		}
		if hi > lo {
			total += hi - lo
		}
		if sa[i][1] < sb[j][1] {
			i++
		} else {
			j++
		}
	}
	return total
}

// End returns the latest event end time.
func (l *Log) End() float64 {
	end := 0.0
	for _, ev := range l.Events {
		if t := ev.Start + ev.Dur; t > end {
			end = t
		}
	}
	return end
}

// Summary renders per-kind busy times and the compute/DMA overlap ratio.
func (l *Log) Summary() string {
	var b strings.Builder
	end := l.End()
	fmt.Fprintf(&b, "timeline: %d events over %.4g ms\n", len(l.Events), end*1e3)
	for _, k := range []Kind{KindGemm, KindTransform, KindDMA, KindWait} {
		busy := l.BusyTime(k)
		if busy == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-10s busy %.4g ms (%.0f%%)\n", k, busy*1e3, busy/end*100)
	}
	dma := l.BusyTime(KindDMA)
	if dma > 0 {
		ov := l.Overlap(KindGemm, KindDMA)
		fmt.Fprintf(&b, "  dma hidden behind compute: %.0f%%\n", ov/dma*100)
	}
	return b.String()
}

// ganttKinds is the row/precedence order of the text Gantt: later kinds
// draw over earlier ones in per-group rows, so compute ends up on top.
var ganttKinds = []Kind{KindWait, KindComm, KindDMA, KindTransform, KindGemm}

// Gantt renders a coarse text Gantt chart (width columns). A single-
// machine timeline gets one row per machine channel (gemm, transform,
// dma, wait); a fleet timeline (events on more than one group) gets one
// row per core group, each cell marked with the dominant channel active
// there (G > T > D > C > W in precedence).
func (l *Log) Gantt(width int) string {
	if width < 10 {
		width = 10
	}
	end := l.End()
	if end == 0 {
		return "(empty timeline)\n"
	}
	if l.Groups() > 1 {
		return l.ganttGroups(width, end)
	}
	var b strings.Builder
	for _, k := range []Kind{KindGemm, KindTransform, KindDMA, KindComm, KindWait} {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		mark := byte(strings.ToUpper(string(k))[0])
		drew := false
		for _, ev := range l.Events {
			if ev.Kind != k || ev.Dur <= 0 {
				// A zero-duration event at the timeline end would index one
				// past the row; instants carry no width anyway.
				continue
			}
			lo := int(ev.Start / end * float64(width))
			hi := int((ev.Start + ev.Dur) / end * float64(width))
			if lo >= width {
				lo = width - 1
			}
			if lo < 0 {
				lo = 0
			}
			if hi >= width {
				hi = width - 1
			}
			for i := lo; i <= hi; i++ {
				row[i] = mark
			}
			drew = true
		}
		if (k == KindWait || k == KindComm) && !drew {
			continue // most schedules never stall; keep the chart compact
		}
		fmt.Fprintf(&b, "%-10s |%s|\n", k, row)
	}
	return b.String()
}

// ganttGroups renders the fleet view: one row per core group on the shared
// fleet clock, so data-parallel overlap and pipeline fill/drain bubbles are
// visible at a glance.
func (l *Log) ganttGroups(width int, end float64) string {
	var b strings.Builder
	for g := 0; g < l.Groups(); g++ {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, k := range ganttKinds {
			mark := byte(strings.ToUpper(string(k))[0])
			for _, ev := range l.Events {
				if ev.Group != g || ev.Kind != k || ev.Dur <= 0 {
					continue
				}
				lo := int(ev.Start / end * float64(width))
				hi := int((ev.Start + ev.Dur) / end * float64(width))
				if lo >= width {
					lo = width - 1
				}
				if lo < 0 {
					lo = 0
				}
				if hi >= width {
					hi = width - 1
				}
				for i := lo; i <= hi; i++ {
					row[i] = mark
				}
			}
		}
		fmt.Fprintf(&b, "%-10s |%s|\n", fmt.Sprintf("group%d", g), row)
	}
	b.WriteString(l.commLegend())
	return b.String()
}

// commLegend lists the comm events under the fleet rows with their
// source→destination groups, so concurrent collectives in the same window
// stay distinguishable. Events sharing a label and start time (a collective
// stamped on every participating group) collapse to one line with the
// union of their sources.
func (l *Log) commLegend() string {
	type entry struct {
		label      string
		start, dur float64
		srcs       []string
		dst        string
	}
	var order []*entry
	index := map[string]*entry{}
	for _, ev := range l.Events {
		if ev.Kind != KindComm {
			continue
		}
		key := fmt.Sprintf("%s@%.9g", ev.Label, ev.Start)
		en := index[key]
		if en == nil {
			en = &entry{label: ev.Label, start: ev.Start, dur: ev.Dur, dst: ev.Args["dst"]}
			index[key] = en
			order = append(order, en)
		}
		src := ev.Args["src"]
		if src == "" {
			src = fmt.Sprintf("group%d", ev.Group)
		}
		dup := false
		for _, s := range en.srcs {
			if s == src {
				dup = true
				break
			}
		}
		if !dup {
			en.srcs = append(en.srcs, src)
		}
	}
	if len(order) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("comm:\n")
	for _, en := range order {
		sort.Strings(en.srcs)
		dst := en.dst
		if dst == "" {
			dst = "?"
		}
		fmt.Fprintf(&b, "  %-24s %s -> %s  @%.4g+%.4g ms\n",
			en.label, strings.Join(en.srcs, ","), dst, en.start*1e3, en.dur*1e3)
	}
	return b.String()
}
