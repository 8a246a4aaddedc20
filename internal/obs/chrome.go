package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Chrome trace-event exporter: renders a Collector as the JSON object
// format that chrome://tracing (and Perfetto's legacy importer) loads
// directly. Tracks become threads grouped into one process per Proc
// label, spans become complete ("X") events with the simulated clock
// mapped to microseconds, so the prefetch overlap of the pipelined
// engine is visually verifiable — the sampler track's span for step
// t+1 sits above the device track's compute span for step t.

// chromeMeta is a metadata ("M") event naming a process or thread.
type chromeMeta struct {
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Name string         `json:"name"`
	Args chromeNameArgs `json:"args"`
}

type chromeNameArgs struct {
	Name string `json:"name"`
}

// chromeSpan is a complete ("X") event.
type chromeSpan struct {
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Name string         `json:"name"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args chromeSpanArgs `json:"args"`
}

type chromeSpanArgs struct {
	Step  int   `json:"step"`
	Bytes int64 `json:"bytes,omitempty"`
}

// chromeFile is the top-level trace object.
type chromeFile struct {
	TraceEvents     []json.RawMessage `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
}

// WriteChromeTrace renders the collector's tracks as Chrome
// trace-event JSON. Spans within each track are emitted in start-time
// order; the simulated clock (seconds) becomes the trace's microsecond
// axis.
func WriteChromeTrace(w io.Writer, c *Collector) error {
	events := make([]json.RawMessage, 0, c.NumSpans()+2*len(c.Tracks()))
	add := func(v any) error {
		raw, err := json.Marshal(v)
		if err != nil {
			return err
		}
		events = append(events, raw)
		return nil
	}
	pidOf := map[string]int{}
	tidNext := map[int]int{}
	for _, t := range c.Tracks() {
		pid, ok := pidOf[t.Proc]
		if !ok {
			pid = len(pidOf)
			pidOf[t.Proc] = pid
			if err := add(chromeMeta{Ph: "M", Pid: pid, Name: "process_name",
				Args: chromeNameArgs{Name: t.Proc}}); err != nil {
				return err
			}
		}
		tid := tidNext[pid]
		tidNext[pid] = tid + 1
		if err := add(chromeMeta{Ph: "M", Pid: pid, Tid: tid, Name: "thread_name",
			Args: chromeNameArgs{Name: t.Name}}); err != nil {
			return err
		}
		for _, s := range t.Spans() {
			if err := add(chromeSpan{
				Ph: "X", Pid: pid, Tid: tid, Name: s.Stage,
				Ts: s.Start * 1e6, Dur: s.Dur * 1e6,
				Args: chromeSpanArgs{Step: s.Step, Bytes: s.Bytes},
			}); err != nil {
				return err
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// WriteChromeTraceFile writes the trace to path (0644).
func WriteChromeTraceFile(path string, c *Collector) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: trace file: %w", err)
	}
	if err := WriteChromeTrace(f, c); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
