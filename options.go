package mmt

import (
	"errors"
	"fmt"

	"mmt/internal/sim"
	"mmt/internal/trace"
)

// settings is the resolved cluster configuration. It is private: the only
// way to configure a cluster is through the With* options, each of which
// validates its argument eagerly — New reports a bad value at the call
// site that supplied it, not as a delayed construction failure.
type settings struct {
	profile    *sim.Profile
	treeLevels int
	regions    int
	netLatency sim.Time
	trace      *trace.Sink
	series     *trace.SeriesConfig
	debugAddr  string
	storePath  string
	set        uint32 // bitmask of set* flags for the options applied
}

// set* flags record which options were supplied. Load and Open use the
// structural mask to reject options that would contradict the snapshot
// being restored (the snapshot is authoritative for geometry and timing).
const (
	setProfile = 1 << iota
	setTreeLevels
	setRegions
	setNetLatency
	setTracing
	setDebugServer
	setStore
	setSampling
)

// structuralSettings are the options a snapshot pins: geometry and the
// timing model travel inside the snapshot and cannot be overridden at
// load time.
const structuralSettings = setProfile | setTreeLevels | setRegions | setNetLatency

// defaultSettings is the paper's default system: the Gem5 cost profile,
// 3-level (2 MB) trees, 8 secure regions per machine, a zero-latency
// interconnect, tracing disabled.
func defaultSettings() settings {
	return settings{
		profile:    sim.Gem5Profile(),
		treeLevels: 3,
		regions:    8,
	}
}

// applySettings folds opts over the defaults, stopping at the first
// option error.
func applySettings(opts []Option) (settings, error) {
	s := defaultSettings()
	for _, opt := range opts {
		if opt == nil {
			return settings{}, errors.New("mmt: nil Option")
		}
		if err := opt(&s); err != nil {
			return settings{}, err
		}
	}
	return s, nil
}

// Option configures a Cluster at construction time. Options validate
// eagerly: a With* constructor given an invalid argument returns an
// Option that fails New (or Load/Open) with a descriptive error. Options
// are applied in order; later options override earlier ones.
type Option func(*settings) error

// optionErr returns an Option that fails immediately.
func optionErr(err error) Option {
	return func(*settings) error { return err }
}

// WithProfile selects the timing model (sim.Gem5Profile,
// sim.IntelProfile, or a custom calibration). Default: Gem5.
func WithProfile(p *sim.Profile) Option {
	if p == nil {
		return optionErr(errors.New("mmt: WithProfile(nil)"))
	}
	if p.Name == "" {
		return optionErr(errors.New("mmt: WithProfile: profile needs a name"))
	}
	if p.FreqHz <= 0 {
		return optionErr(fmt.Errorf("mmt: WithProfile(%q): non-positive FreqHz %v", p.Name, p.FreqHz))
	}
	return func(s *settings) error {
		s.profile = p
		s.set |= setProfile
		return nil
	}
}

// WithTreeLevels sets the MMT depth (2, 3 or 4 — 512 KB, 2 MB or 32 MB
// granules). Default: 3.
func WithTreeLevels(levels int) Option {
	if levels < 2 || levels > 4 {
		return optionErr(fmt.Errorf("mmt: WithTreeLevels(%d): want 2, 3 or 4", levels))
	}
	return func(s *settings) error {
		s.treeLevels = levels
		s.set |= setTreeLevels
		return nil
	}
}

// WithRegions sizes each machine's secure-memory pool in regions of one
// MMT granule each. Default: 8.
func WithRegions(n int) Option {
	if n < 1 {
		return optionErr(fmt.Errorf("mmt: WithRegions(%d): want at least 1", n))
	}
	return func(s *settings) error {
		s.regions = n
		s.set |= setRegions
		return nil
	}
}

// WithNetLatency sets the one-way interconnect propagation delay
// (Figure 10b sweeps this). Default: 0.
func WithNetLatency(d sim.Time) Option {
	if d < 0 {
		return optionErr(fmt.Errorf("mmt: WithNetLatency(%v): negative delay", d))
	}
	return func(s *settings) error {
		s.netLatency = d
		s.set |= setNetLatency
		return nil
	}
}

// WithTracing attaches a trace sink: every machine added to the cluster
// records its per-phase cycle totals, counters and spans (all stamped
// from the simulated clocks) into sink. Pass the sink to NewTraceSink's
// result; read it back via Cluster.Metrics, TraceSink.Summary, or
// TraceSink.WriteChromeTrace. To run untraced (the default — the
// instrumented paths then cost one branch and zero allocations), simply
// omit the option; WithTracing(nil) is an error, not a disable switch.
func WithTracing(sink *TraceSink) Option {
	if sink == nil {
		return optionErr(errors.New("mmt: WithTracing(nil): omit the option to disable tracing"))
	}
	return func(s *settings) error {
		s.trace = sink
		s.set |= setTracing
		return nil
	}
}

// WithSampling switches on the deterministic time-series sampler for
// the cluster's trace sink: every machine's clock samples its phase
// cycles, counters and per-op histogram deltas once per window of
// 2^cfg.WindowShift simulated cycles into a bounded per-machine ring.
// cfg.WindowShift may be at most 63; New rejects a larger one. Requires
// WithTracing; read the series back via TraceSink.WriteSeriesJSON /
// SeriesSnapshot, or scrape the OpenMetrics exposition at
// /debug/mmt/metrics when a debug server is attached. cfg.MaxSamples
// zero means DefaultSeriesCap.
func WithSampling(cfg SamplingConfig) Option {
	if cfg.MaxSamples < 0 {
		return optionErr(fmt.Errorf("mmt: WithSampling: negative MaxSamples %d", cfg.MaxSamples))
	}
	return func(s *settings) error {
		c := cfg
		s.series = &c
		s.set |= setSampling
		return nil
	}
}

// WithDebugServer starts a read-only HTTP introspection endpoint on addr
// (e.g. "localhost:6070", or "127.0.0.1:0" to pick a free port — read it
// back with Cluster.DebugAddr). The server exposes:
//
//	/debug/mmt/hist     per-operation latency histograms (mmt-hist/v1)
//	/debug/mmt/events   the security-event ledger (mmt-events/v1 JSONL)
//	/debug/mmt/summary  the compact text summary (plus ledger droppage)
//	/debug/mmt/metrics  OpenMetrics text exposition (scrapeable; includes
//	                    the time series when WithSampling is on)
//	/debug/mmt/series   the mmt-series/v1 artifact (404 without sampling)
//	/debug/vars         expvar-style metrics JSON
//	/debug/pprof/       the standard Go profiling endpoints
//
// Every response is rendered from a copied snapshot: serving never blocks
// a running simulation, never mutates it, and never charges simulated
// cycles — the simulated timeline is byte-identical with and without the
// server attached. Shut it down with Cluster.Close.
func WithDebugServer(addr string) Option {
	if addr == "" {
		return optionErr(errors.New("mmt: WithDebugServer(\"\"): empty address"))
	}
	return func(s *settings) error {
		s.debugAddr = addr
		s.set |= setDebugServer
		return nil
	}
}

// WithStore attaches an on-disk mmt-store/v1 checkpoint store at dir:
// Cluster.Checkpoint (and the final checkpoint Close performs) stream the
// cluster's dirty state into it under the two-file crash-consistency
// protocol, and mmt.Open(dir) restores the last committed state in a
// later process.
//
// With New, dir must not already hold a committed snapshot — resuming an
// existing store is Open's job, and silently overwriting a committed
// state would defeat the crash-consistency contract. Load accepts a
// fresh-or-committed store and re-bases it from the loaded snapshot.
func WithStore(dir string) Option {
	if dir == "" {
		return optionErr(errors.New("mmt: WithStore(\"\"): empty directory"))
	}
	return func(s *settings) error {
		s.storePath = dir
		s.set |= setStore
		return nil
	}
}

// TraceSink collects cycle-stamped events and monotonic counters from
// every component of a traced cluster. See package mmt/internal/trace
// for the schema; DESIGN.md documents the phase and counter names.
type TraceSink = trace.Sink

// Metrics is a copied snapshot of a trace sink's accumulators: one
// entry per machine, sorted by name. Returned by Cluster.Metrics.
type Metrics = trace.Metrics

// NewTraceSink returns an empty trace sink for WithTracing.
func NewTraceSink() *TraceSink { return trace.NewSink() }

// TracePhase labels one cost category in Metrics (see the Phase* re-
// exports); TraceCounter labels one monotonic count (see Ctr*).
type (
	TracePhase   = trace.Phase
	TraceCounter = trace.Counter
)

// TraceOp labels one operation kind with a cycle-latency histogram in
// Metrics (see the Op* re-exports); Histogram is the fixed-bucket
// power-of-two latency distribution itself.
type (
	TraceOp   = trace.Op
	Histogram = trace.Histogram
)

// Operation re-exports for Metrics.Op.
const (
	OpLocalRead     = trace.OpLocalRead
	OpLocalWrite    = trace.OpLocalWrite
	OpRemoteRead    = trace.OpRemoteRead
	OpRemoteWrite   = trace.OpRemoteWrite
	OpMigrationSend = trace.OpMigrationSend
	OpMigrationRecv = trace.OpMigrationRecv
	OpVerify        = trace.OpVerify
	OpReencrypt     = trace.OpReencrypt
)

// CausalTrace is one migration's (or connect handshake's) cross-machine
// span tree with its end-to-end cycle total and critical path (returned
// by Cluster.Traces); CausalSpan is one span of such a tree; TraceID
// names the trace (root machine + per-machine monotonic sequence — IDs
// are deterministic, never random).
type (
	CausalTrace = trace.CausalTrace
	CausalSpan  = trace.CausalSpan
	TraceID     = trace.TraceID
)

// SecurityEvent is one cycle-stamped entry of the bounded security-event
// ledger (returned by Cluster.Events); SecurityEventKind classifies it;
// Severity ranks kinds (info/warn/error) and selects which events carry
// a frozen FlightSpan ring of the recording machine's recent spans.
type (
	SecurityEvent     = trace.SecEvent
	SecurityEventKind = trace.EventKind
	Severity          = trace.Severity
	FlightSpan        = trace.FlightSpan
)

// Severity re-exports for SecurityEventKind.Severity.
const (
	SevInfo  = trace.SevInfo
	SevWarn  = trace.SevWarn
	SevError = trace.SevError
)

// SamplingConfig configures the windowed time-series sampler
// (WithSampling); SampleSeries is its copied snapshot (returned by
// TraceSink.SeriesSnapshot), made of per-machine ProcSeries whose
// SeriesSample window deltas sum exactly to the end-of-run accumulator
// totals.
type (
	SamplingConfig = trace.SeriesConfig
	SampleSeries   = trace.SeriesView
	ProcSeries     = trace.ProcSeries
	SeriesSample   = trace.SeriesSample
)

// Security-event kind re-exports for Cluster.Events.
const (
	EvIntegrityFail   = trace.EvIntegrityFail
	EvAuthFail        = trace.EvAuthFail
	EvReplayReject    = trace.EvReplayReject
	EvReorderReject   = trace.EvReorderReject
	EvStaleCounter    = trace.EvStaleCounter
	EvMigrationSend   = trace.EvMigrationSend
	EvMigrationAccept = trace.EvMigrationAccept
	EvMigrationReject = trace.EvMigrationReject
	EvDelegationAck   = trace.EvDelegationAck
	EvCapDestroy      = trace.EvCapDestroy
)

// Phase re-exports for Metrics.PhaseCycles.
const (
	PhaseData       = trace.PhaseData
	PhaseRootMount  = trace.PhaseRootMount
	PhaseTreeWalk   = trace.PhaseTreeWalk
	PhaseMAC        = trace.PhaseMAC
	PhaseTreeUpdate = trace.PhaseTreeUpdate
	PhaseReencrypt  = trace.PhaseReencrypt
	PhaseMemcpy     = trace.PhaseMemcpy
	PhaseEncrypt    = trace.PhaseEncrypt
	PhaseDecrypt    = trace.PhaseDecrypt
	PhaseDMA        = trace.PhaseDMA
	PhaseDelegation = trace.PhaseDelegation
	PhaseConnect    = trace.PhaseConnect
	PhaseSend       = trace.PhaseSend
	PhaseRecv       = trace.PhaseRecv
	PhaseApp        = trace.PhaseApp
)

// Counter re-exports for Metrics.Counter. The CtrWire* counters are the
// adversary's view: messages and bytes per traffic kind, counted at the
// sending endpoint — exactly what an interposer on the interconnect sees.
const (
	CtrTreeNodeWalks       = trace.CtrTreeNodeWalks
	CtrMACVerifies         = trace.CtrMACVerifies
	CtrMACUpdates          = trace.CtrMACUpdates
	CtrNodeCacheHits       = trace.CtrNodeCacheHits
	CtrNodeCacheMisses     = trace.CtrNodeCacheMisses
	CtrRootMounts          = trace.CtrRootMounts
	CtrReencryptLines      = trace.CtrReencryptLines
	CtrTreeNodeVerifies    = trace.CtrTreeNodeVerifies
	CtrTreeNodeVerifyFails = trace.CtrTreeNodeVerifyFails
	CtrTreeNodeRehashes    = trace.CtrTreeNodeRehashes
	CtrClosuresSent        = trace.CtrClosuresSent
	CtrClosuresAccepted    = trace.CtrClosuresAccepted
	CtrClosuresRejected    = trace.CtrClosuresRejected
	CtrClosureEncodeBytes  = trace.CtrClosureEncodeBytes
	CtrClosureDecodeBytes  = trace.CtrClosureDecodeBytes
	CtrWireMsgsData        = trace.CtrWireMsgsData
	CtrWireMsgsClosure     = trace.CtrWireMsgsClosure
	CtrWireMsgsControl     = trace.CtrWireMsgsControl
	CtrWireBytesData       = trace.CtrWireBytesData
	CtrWireBytesClosure    = trace.CtrWireBytesClosure
	CtrWireBytesControl    = trace.CtrWireBytesControl
)

// New builds the trust roots and the interconnect. With no options it
// gives the paper's default system: the Gem5 cost profile, 3-level
// (2 MB) trees, 8 secure regions per machine, a zero-latency
// interconnect, and tracing disabled.
func New(opts ...Option) (*Cluster, error) {
	s, err := applySettings(opts)
	if err != nil {
		return nil, err
	}
	return newCluster(s)
}
