package ql

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	hmts "github.com/dsms/hmts"
	"github.com/dsms/hmts/internal/sched"
)

// CreateSource is a parsed CREATE SOURCE statement:
//
//	CREATE SOURCE name COUNT n RATE hz [KEYS lo hi] [SEED s] [STAMPED]
//
// RATE 0 emits as fast as downstream accepts; STAMPED selects the
// deterministic virtual-time source. KEYS defaults to 0 1000000.
type CreateSource struct {
	Name         string
	Count        int
	RateHz       float64
	KeyLo, KeyHi int64
	Seed         uint64
	Stamped      bool
}

// SetMode is a parsed SET MODE statement:
//
//	SET MODE gts|ots|di|pure-di|hmts [fifo|chain]
//
// The strategy defaults to fifo; any other name is a parse error.
type SetMode struct {
	Mode     hmts.Mode
	Strategy string
}

// Script is a parsed sequence of statements: any number of CREATE SOURCE
// and SELECT statements plus at most one SET MODE (defaulting to HMTS).
type Script struct {
	Sources  []CreateSource
	Queries  []*Query
	Mode     hmts.Mode
	Strategy string
	modeSet  bool
}

// ParseScript parses a ';'-separated statement list. Blank statements and
// line comments starting with "--" are ignored.
func ParseScript(input string) (*Script, error) {
	s := &Script{Mode: hmts.ModeHMTS}
	var clean []string
	for _, line := range strings.Split(input, "\n") {
		if i := strings.Index(line, "--"); i >= 0 {
			line = line[:i]
		}
		clean = append(clean, line)
	}
	for i, stmt := range strings.Split(strings.Join(clean, "\n"), ";") {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" {
			continue
		}
		if err := s.parseStatement(stmt); err != nil {
			return nil, fmt.Errorf("statement %d: %w", i+1, err)
		}
	}
	if len(s.Queries) == 0 {
		return nil, fmt.Errorf("ql: script has no SELECT statement")
	}
	return s, nil
}

func (s *Script) parseStatement(stmt string) error {
	first := strings.ToLower(strings.Fields(stmt)[0])
	switch first {
	case "select":
		q, err := Parse(stmt)
		if err != nil {
			return err
		}
		s.Queries = append(s.Queries, q)
		return nil
	case "create":
		f := strings.Fields(stmt)
		if len(f) < 2 || strings.ToLower(f[1]) != "source" {
			return fmt.Errorf("ql: malformed CREATE SOURCE")
		}
		cs, err := ParseSource(strings.Join(f[2:], " "))
		if err != nil {
			return err
		}
		for _, prev := range s.Sources {
			if prev.Name == cs.Name {
				return fmt.Errorf("ql: duplicate source %q", cs.Name)
			}
		}
		s.Sources = append(s.Sources, cs)
		return nil
	case "set":
		sm, err := parseSetMode(stmt)
		if err != nil {
			return err
		}
		if s.modeSet {
			return fmt.Errorf("ql: SET MODE given twice")
		}
		s.modeSet = true
		s.Mode, s.Strategy = sm.Mode, sm.Strategy
		return nil
	}
	return fmt.Errorf("ql: unknown statement %q", first)
}

// ParseSource parses a generated-source definition — the text after
// CREATE SOURCE, which hmtsd's SOURCE command takes as well:
//
//	name COUNT n [RATE hz] [KEYS lo hi] [SEED s] [STAMPED]
//
// Keywords are case-insensitive and the name is lowercased.
func ParseSource(def string) (CreateSource, error) {
	f := strings.Fields(def)
	if len(f) == 0 {
		return CreateSource{}, fmt.Errorf("ql: source needs a name")
	}
	cs := CreateSource{Name: strings.ToLower(f[0]), KeyHi: 1_000_000, Seed: 1}
	var err error
	for i := 1; i < len(f); {
		opt := strings.ToLower(f[i])
		switch opt {
		case "count":
			cs.Count, err = strconv.Atoi(arg(f, i+1))
			i += 2
		case "rate":
			cs.RateHz, err = strconv.ParseFloat(arg(f, i+1), 64)
			i += 2
		case "keys":
			cs.KeyLo, err = strconv.ParseInt(arg(f, i+1), 10, 64)
			if err == nil {
				cs.KeyHi, err = strconv.ParseInt(arg(f, i+2), 10, 64)
			}
			i += 3
		case "seed":
			cs.Seed, err = strconv.ParseUint(arg(f, i+1), 10, 64)
			i += 2
		case "stamped":
			cs.Stamped = true
			i++
		default:
			return CreateSource{}, fmt.Errorf("ql: unknown source option %q", f[i])
		}
		if err != nil {
			return CreateSource{}, fmt.Errorf("ql: bad source option %s: %w", strings.ToUpper(opt), err)
		}
	}
	if !validRate(cs.RateHz) {
		return CreateSource{}, fmt.Errorf("ql: bad source option RATE: %v is neither 0 nor a finite positive rate whose period fits int64 nanoseconds", cs.RateHz)
	}
	if cs.Count <= 0 {
		return CreateSource{}, fmt.Errorf("ql: source needs COUNT > 0")
	}
	if cs.KeyHi < cs.KeyLo {
		return CreateSource{}, fmt.Errorf("ql: source KEYS hi < lo")
	}
	return cs, nil
}

// validRate reports whether a generator can pace at hz: 0 (as fast as
// possible), or a finite positive rate whose period, 1e9/hz ns, fits an
// int64. NaN, ±Inf, negative and vanishingly small rates cannot be paced.
func validRate(hz float64) bool {
	return hz == 0 || hz > 0 && !math.IsInf(hz, 1) && 1e9/hz < math.MaxInt64
}

// Spec returns the generated source cs describes: keys uniform over
// [KeyLo, KeyHi], in real time, or in virtual time when Stamped.
func (cs CreateSource) Spec() hmts.SourceSpec {
	gen := hmts.UniformKeys(cs.KeyLo, cs.KeyHi, cs.Seed)
	if cs.Stamped {
		return hmts.GenerateStamped(cs.Count, cs.RateHz, gen)
	}
	return hmts.Generate(cs.Count, cs.RateHz, gen)
}

func arg(f []string, i int) string {
	if i < 0 || i >= len(f) {
		return ""
	}
	return f[i]
}

// parseSetMode parses: SET MODE m [strategy].
func parseSetMode(stmt string) (SetMode, error) {
	f := strings.Fields(strings.ToLower(stmt))
	if len(f) < 3 || f[0] != "set" || f[1] != "mode" {
		return SetMode{}, fmt.Errorf("ql: malformed SET MODE")
	}
	mode, err := hmts.ParseMode(f[2])
	if err == nil {
		err = sched.CheckStrategy(arg(f, 3))
	}
	if err != nil {
		return SetMode{}, fmt.Errorf("ql: SET MODE: %w", err)
	}
	if len(f) > 4 {
		return SetMode{}, fmt.Errorf("ql: trailing tokens after SET MODE")
	}
	return SetMode{Mode: mode, Strategy: arg(f, 3)}, nil
}

// QueryResult is the outcome of one script query.
type QueryResult struct {
	Query   string
	Count   uint64
	Sample  []hmts.Element // up to SampleCap earliest results
	Elapsed time.Duration
}

// SampleCap bounds how many results Execute retains per query.
const SampleCap = 16

// Execute builds the script's sources and queries into one shared engine,
// runs it to completion under the script's mode, and returns one result
// per query (in statement order).
func (s *Script) Execute() ([]QueryResult, error) {
	eng := hmts.New()
	sources := make(map[string]*hmts.Stream, len(s.Sources))
	for _, cs := range s.Sources {
		sources[cs.Name] = eng.Source(cs.Name, cs.Spec())
	}
	sinks := make([]*sampleSink, len(s.Queries))
	for i, q := range s.Queries {
		out, err := Plan(eng, sources, q)
		if err != nil {
			return nil, err
		}
		sinks[i] = newSampleSink()
		out.Into(fmt.Sprintf("script-q%d", i), sinks[i])
	}
	start := time.Now()
	if err := eng.Run(hmts.RunConfig{Mode: s.Mode, Strategy: s.Strategy}); err != nil {
		return nil, err
	}
	eng.Wait()
	elapsed := time.Since(start)
	if err := eng.Err(); err != nil {
		return nil, err
	}
	results := make([]QueryResult, len(s.Queries))
	for i, q := range s.Queries {
		sinks[i].wait()
		results[i] = QueryResult{
			Query:   q.String(),
			Count:   sinks[i].count,
			Sample:  sinks[i].sample,
			Elapsed: elapsed,
		}
	}
	return results, nil
}

// sampleSink counts results and keeps the first few.
type sampleSink struct {
	count  uint64
	sample []hmts.Element
	done   chan struct{}
}

func newSampleSink() *sampleSink { return &sampleSink{done: make(chan struct{})} }

// Process implements hmts.Sink; the engine guarantees a single driver per
// sink edge here (each query has its own sink node fed by one stream).
func (s *sampleSink) Process(_ int, e hmts.Element) {
	s.count++
	if len(s.sample) < SampleCap {
		s.sample = append(s.sample, e)
	}
}

// Done implements hmts.Sink.
func (s *sampleSink) Done(int) { close(s.done) }

func (s *sampleSink) wait() { <-s.done }
