// Package v1 is the versioned request/result schema shared by every
// respin entry point: the long-running evaluation service
// (cmd/respin-serve) and the one-shot CLIs (cmd/respin-sim and friends)
// speak exactly these types, so a served result is byte-identical to
// the CLI output for the same request.
//
// Every document carries an explicit "schema_version" field. Decoding
// is strict: unknown fields, missing versions, and version mismatches
// are rejected at the boundary, so schema drift is an immediate,
// attributable error instead of a silently-ignored key. The canonical
// encoding (EncodeBytes: two-space indent, trailing newline) is the
// single source of bytes for HTTP responses, -metrics files, and the
// golden tests that gate the schema.
//
// The lifecycle is:
//
//	req, err := v1.DecodeRunRequest(body)   // strict decode + Normalize
//	cfg, opts, err := req.Resolve()         // config.Config + sim.Options
//	res, runErr := sim.RunContext(ctx, cfg, req.Bench, opts)
//	doc, err := v1.NewResult(req, res, runErr)
//	data, err := v1.EncodeBytes(doc)
package v1

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"respin/internal/config"
	"respin/internal/endurance"
	"respin/internal/faults"
	"respin/internal/reliability"
	"respin/internal/sim"
	"respin/internal/telemetry"
	"respin/internal/trace"
)

// SchemaVersion identifies this wire schema. Additive,
// backward-compatible changes keep the version and update the golden
// files in the same commit; breaking changes fork a v2 package.
const SchemaVersion = "respin/v1"

// Result statuses.
const (
	// StatusComplete: the simulation ran to completion.
	StatusComplete = "complete"
	// StatusPartial: the run was cut short (cancellation or a
	// per-request deadline); the result covers the cycles executed.
	StatusPartial = "partial"
	// StatusWearOut: an STT array exhausted its endurance budget; the
	// result covers the array's lifetime (endurance sweeps treat this
	// as a recorded outcome, not a failure).
	StatusWearOut = "wear-out"
	// StatusError: the point could not be simulated at all (sweep
	// results only; single-run errors surface as HTTP/CLI errors).
	StatusError = "error"
)

// DefaultKillCycle is the cycle a fault spec's kills strike at when it
// names none; the -kill-cycle flag shows it as its default.
const DefaultKillCycle = 20_000

// RunRequest identifies one simulation: the Table IV configuration
// point plus every knob that can alter its result. The zero value of
// each optional field selects the same default the CLI flags do, so a
// minimal {config, bench} request reproduces `respin-sim -config X
// -bench Y` exactly.
type RunRequest struct {
	SchemaVersion string `json:"schema_version"`
	// Config is the Table IV mnemonic (e.g. "SH-STT"), case-insensitive
	// on input, canonical spelling after Normalize.
	Config string `json:"config"`
	// Bench is the benchmark name (see trace.Names).
	Bench string `json:"bench"`
	// Scale is the cache scale: small, medium (default), large.
	Scale string `json:"scale,omitempty"`
	// Cluster is the cores-per-cluster count; 0 selects the default 16.
	Cluster int `json:"cluster,omitempty"`
	// Quota is the per-thread instruction budget; 0 selects
	// sim.DefaultQuota.
	Quota uint64 `json:"quota,omitempty"`
	// Seed drives workload/arbitration randomness; 0 selects 1.
	Seed int64 `json:"seed,omitempty"`
	// Workers is accepted so that clients which send it get no error,
	// and ignored: a simulation runs on one goroutine. Normalize rejects
	// a negative value and then clears the field, so it never reaches a
	// key, the simulator or a result.
	Workers int `json:"workers,omitempty"`
	// EpochTrace records the consolidation trace (Figures 12-14).
	EpochTrace bool `json:"epoch_trace,omitempty"`
	// DisableFastForward forces the cycle-exact slow path. Results are
	// bit-identical either way except with a retention model, whose L3
	// scrubs wait for an epoch boundary (sim.Options.DisableFastForward).
	DisableFastForward bool `json:"disable_fast_forward,omitempty"`
	// EpochCycles caps the scheduler's epoch length (debugging knob).
	// Results are invariant except for work done at epoch boundaries:
	// the halt-on-uncorrectable machine check and retention scrubs of
	// the L3 (sim.Options.EpochCycles).
	EpochCycles uint64 `json:"epoch_cycles,omitempty"`
	// Faults configures fault injection; nil injects nothing.
	Faults *FaultSpec `json:"faults,omitempty"`
	// Endurance configures the STT wear/retention model; nil disables.
	Endurance *EnduranceSpec `json:"endurance,omitempty"`
	// TimeoutMS bounds the run's wall-clock time (server-side deadline;
	// 0 means no per-request deadline). An expired deadline yields a
	// StatusPartial result.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// FaultSpec is the fault-injection settings of a run; the tools' fault
// flags write its fields.
type FaultSpec struct {
	// Seed drives fault randomness (distinct from the run seed); 0
	// selects 1.
	Seed int64 `json:"seed,omitempty"`
	// STTWriteFail is the per-attempt STT write-verify failure
	// probability.
	STTWriteFail float64 `json:"stt_write_fail,omitempty"`
	// MaxWriteRetries bounds the verify-retry loop; 0 selects the
	// model default.
	MaxWriteRetries int `json:"max_write_retries,omitempty"`
	// SRAMBitFlip is the per-cell SRAM read-upset probability; negative
	// derives it from the cache rail voltage.
	SRAMBitFlip float64 `json:"sram_bitflip,omitempty"`
	// ECC names the scheme protecting SRAM words: none, parity, SECDED
	// (default), DECTED.
	ECC string `json:"ecc,omitempty"`
	// HaltOnUncorrectable aborts on the first uncorrectable word.
	HaltOnUncorrectable bool `json:"halt_uncorrectable,omitempty"`
	// KillCores hard-kills this many cores per cluster at KillCycle.
	KillCores int `json:"kill_cores,omitempty"`
	// KillCycle is the cycle the kills strike (0 selects
	// DefaultKillCycle when KillCores > 0).
	KillCycle uint64 `json:"kill_cycle,omitempty"`
}

// injects reports whether the spec configures any fault at all; a
// non-injecting spec is normalized away (zero-rate injection is proven
// bit-identical to no injector).
func (f *FaultSpec) injects() bool {
	return f != nil && (f.STTWriteFail > 0 || f.SRAMBitFlip != 0 ||
		f.KillCores > 0 || f.HaltOnUncorrectable || f.MaxWriteRetries != 0)
}

// EnduranceSpec is the STT wear/retention settings of a run; the tools'
// endurance flags write its fields. Its randomness seed derives from
// the fault seed, as on the command line (see Params).
type EnduranceSpec struct {
	// Budget is the mean per-way STT write-endurance budget; 0 disables
	// wear tracking.
	Budget float64 `json:"budget,omitempty"`
	// Sigma is the lognormal sigma; 0 selects the default.
	Sigma float64 `json:"sigma,omitempty"`
	// RetentionCycles is the relaxed-retention line lifetime; 0
	// disables the retention model.
	RetentionCycles uint64 `json:"retention_cycles,omitempty"`
	// ScrubPeriod is the background scrub period; 0 selects
	// RetentionCycles/2.
	ScrubPeriod uint64 `json:"scrub_period,omitempty"`
	// WearLevel enables the set-index rotation.
	WearLevel bool `json:"wear_level,omitempty"`
	// WearLevelPeriod is the writes-between-rotations count; 0 selects
	// the default.
	WearLevelPeriod uint64 `json:"wear_period,omitempty"`
}

// enabled mirrors endurance.Params.Enabled; a disabled spec is
// normalized away.
func (e *EnduranceSpec) enabled() bool {
	return e != nil && (e.Budget > 0 || e.RetentionCycles > 0)
}

// Params resolves the spec into the endurance model of a run whose
// fault spec is f. This is the one seed rule of every tool and the
// service: the model draws its budgets from the fault seed when f
// injects a fault, and from seed 1 otherwise, so fault flags that
// inject nothing do not move a run. A disabled spec (nil included)
// resolves to the disabled model.
func (e *EnduranceSpec) Params(f *FaultSpec) endurance.Params {
	if !e.enabled() {
		return endurance.Params{}
	}
	seed := int64(1)
	if f.injects() && f.Seed != 0 {
		seed = f.Seed
	}
	return endurance.Params{
		Seed:            seed,
		BudgetMean:      e.Budget,
		BudgetSigma:     e.Sigma,
		RetentionCycles: e.RetentionCycles,
		ScrubPeriod:     e.ScrubPeriod,
		WearLevel:       e.WearLevel,
		WearLevelPeriod: e.WearLevelPeriod,
	}
}

// Normalize canonicalizes the request in place: enum names take their
// canonical spelling, zero-valued knobs take their CLI defaults, and
// no-op fault/endurance specs are dropped, so two requests meaning the
// same simulation normalize to the same bytes (and the same cache
// key). An empty SchemaVersion is filled in; a wrong one is rejected.
func (r *RunRequest) Normalize() error {
	switch r.SchemaVersion {
	case "":
		r.SchemaVersion = SchemaVersion
	case SchemaVersion:
	default:
		return fmt.Errorf("api: unsupported schema_version %q (want %q)", r.SchemaVersion, SchemaVersion)
	}
	kind, err := config.KindByName(r.Config)
	if err != nil {
		return err
	}
	r.Config = kind.String()
	scale, err := config.ScaleByName(r.Scale)
	if err != nil {
		return err
	}
	r.Scale = scale.String()
	if _, err := trace.ByName(r.Bench); err != nil {
		return err
	}
	if r.Cluster < 0 {
		return fmt.Errorf("api: negative cluster size %d", r.Cluster)
	}
	if r.Cluster == 0 {
		r.Cluster = config.New(kind, scale).ClusterSize
	}
	if r.Quota == 0 {
		r.Quota = sim.DefaultQuota
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Workers < 0 {
		return fmt.Errorf("api: negative worker count %d", r.Workers)
	}
	r.Workers = 0
	if r.TimeoutMS < 0 {
		return fmt.Errorf("api: negative timeout_ms %d", r.TimeoutMS)
	}
	if f := r.Faults; f != nil {
		// Validate every field before deciding the spec is a no-op: a
		// bogus ECC name or negative rate must fail loudly even when no
		// fault would actually inject.
		if f.STTWriteFail < 0 {
			return fmt.Errorf("api: negative stt_write_fail %v", f.STTWriteFail)
		}
		if f.MaxWriteRetries < 0 {
			return fmt.Errorf("api: negative max_write_retries %d", f.MaxWriteRetries)
		}
		if f.KillCores < 0 {
			return fmt.Errorf("api: negative kill_cores %d", f.KillCores)
		}
		if f.ECC == "" {
			f.ECC = reliability.SECDED.String()
		}
		ecc, err := reliability.ECCByName(f.ECC)
		if err != nil {
			return err
		}
		f.ECC = ecc.String()
	}
	if !r.Faults.injects() {
		r.Faults = nil
	} else {
		f := r.Faults
		if f.Seed == 0 {
			f.Seed = 1
		}
		if f.KillCores == 0 {
			f.KillCycle = 0
		} else if f.KillCycle == 0 {
			f.KillCycle = DefaultKillCycle
		}
	}
	if !r.Endurance.enabled() {
		r.Endurance = nil
	} else if r.Endurance.Budget < 0 || r.Endurance.Sigma < 0 {
		return fmt.Errorf("api: negative endurance budget/sigma")
	}
	return nil
}

// Key returns the request's canonical identity: the compact JSON of the
// normalized request. Identical requests — after normalization — have
// identical keys, which is what the server's singleflight cache keys
// runs by.
func (r RunRequest) Key() string {
	data, err := json.Marshal(r)
	if err != nil {
		// Every field is a plain scalar or struct of scalars; Marshal
		// cannot fail on a value, only on a programming error here.
		panic(fmt.Sprintf("api: marshal request key: %v", err))
	}
	return string(data)
}

// Label returns the short human identity used for progress lines and
// telemetry scopes.
func (r RunRequest) Label() string {
	return fmt.Sprintf("%s.%s.cl%d.%s.q%d.s%d", r.Config, r.Scale, r.Cluster, r.Bench, r.Quota, r.Seed)
}

// Resolve turns a normalized request into the chip configuration and
// simulator options it denotes (ResolveConfig, then ResolveOptions),
// validating every knob so callers can reject a bad request before
// queueing it. The returned options carry no telemetry collector; the
// executor attaches one.
func (r RunRequest) Resolve() (config.Config, sim.Options, error) {
	if _, err := trace.ByName(r.Bench); err != nil {
		return config.Config{}, sim.Options{}, err
	}
	cfg, err := r.ResolveConfig()
	if err != nil {
		return config.Config{}, sim.Options{}, err
	}
	opts, err := r.ResolveOptions(cfg)
	if err != nil {
		return config.Config{}, sim.Options{}, err
	}
	return cfg, opts, nil
}

// ResolveConfig returns the validated chip configuration the request
// names: its Table IV configuration, scale and cluster size.
func (r RunRequest) ResolveConfig() (config.Config, error) {
	kind, err := config.KindByName(r.Config)
	if err != nil {
		return config.Config{}, err
	}
	scale, err := config.ScaleByName(r.Scale)
	if err != nil {
		return config.Config{}, err
	}
	cfg := config.NewWithCluster(kind, scale, r.Cluster)
	if err := cfg.Validate(); err != nil {
		return config.Config{}, err
	}
	return cfg, nil
}

// ResolveOptions returns the normalized simulator options the request
// sets for a run on cfg, which need not be the configuration the
// request names: kills are laid out over cfg's clusters and the fault
// rates are validated against its cache rail, so a sweep over
// configurations resolves one request once per point.
func (r RunRequest) ResolveOptions(cfg config.Config) (sim.Options, error) {
	opts := sim.Options{
		QuotaInstr:         r.Quota,
		Seed:               r.Seed,
		EpochTrace:         r.EpochTrace,
		DisableFastForward: r.DisableFastForward,
		EpochCycles:        r.EpochCycles,
		Endurance:          r.Endurance.Params(r.Faults),
	}
	if f := r.Faults; f != nil {
		ecc, err := reliability.ECCByName(f.ECC)
		if err != nil {
			return sim.Options{}, err
		}
		opts.Faults = faults.Params{
			Seed:                f.Seed,
			STTWriteFailProb:    f.STTWriteFail,
			MaxWriteRetries:     f.MaxWriteRetries,
			SRAMBitFlipPerCell:  f.SRAMBitFlip,
			ECC:                 ecc,
			HaltOnUncorrectable: f.HaltOnUncorrectable,
		}
		if f.KillCores > 0 {
			opts.Faults.Kills = faults.KillFirstN(cfg.NumClusters(), f.KillCores, f.KillCycle)
		}
		// Validate against the resolved rail rate without mutating the
		// options: sim.New performs the same substitution itself.
		vfp := opts.Faults
		if vfp.SRAMBitFlipPerCell < 0 {
			vfp.SRAMBitFlipPerCell = reliability.CellFailProb(cfg.Tech, cfg.CacheVdd)
		}
		if err := vfp.Validate(cfg.NumClusters(), cfg.ClusterSize); err != nil {
			return sim.Options{}, err
		}
	}
	if err := opts.Normalize(); err != nil {
		return sim.Options{}, err
	}
	return opts, nil
}

// Timeout returns the request deadline (0 when unbounded).
func (r RunRequest) Timeout() (ms int64, bounded bool) {
	return r.TimeoutMS, r.TimeoutMS > 0
}

// RunResult is the response envelope around one simulation: the
// normalized request echoed back, a status, and the sim.Result document
// (whose shape is pinned by its own MarshalJSON golden test). Result is
// kept as raw JSON so the envelope round-trips byte-identically without
// this package owning decoders for every simulator aggregate.
type RunResult struct {
	SchemaVersion string     `json:"schema_version"`
	Request       RunRequest `json:"request"`
	// Status is one of the Status* constants.
	Status string `json:"status"`
	// Detail carries the cancellation or wear-out diagnostic when
	// Status is not "complete".
	Detail string `json:"detail,omitempty"`
	// Error is set (and Result absent) only on sweep points that could
	// not run at all.
	Error string `json:"error,omitempty"`
	// Result is the sim.Result document.
	Result json.RawMessage `json:"result,omitempty"`
}

// NewResult builds the envelope for one executed request. A
// cancellation or deadline error yields StatusPartial, a wear-out
// yields StatusWearOut; any other runErr is a real failure and is
// returned instead of wrapped.
func NewResult(req RunRequest, res sim.Result, runErr error) (RunResult, error) {
	out := RunResult{SchemaVersion: SchemaVersion, Request: req, Status: StatusComplete}
	var wear *endurance.WearOutError
	switch {
	case runErr == nil:
	case errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded):
		out.Status = StatusPartial
		out.Detail = runErr.Error()
	case errors.As(runErr, &wear):
		out.Status = StatusWearOut
		out.Detail = runErr.Error()
	default:
		return RunResult{}, runErr
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return RunResult{}, fmt.Errorf("api: marshal result: %w", err)
	}
	out.Result = raw
	return out, nil
}

// ErrorResult builds the envelope for a sweep point that failed to run.
func ErrorResult(req RunRequest, runErr error) RunResult {
	return RunResult{
		SchemaVersion: SchemaVersion,
		Request:       req,
		Status:        StatusError,
		Error:         runErr.Error(),
	}
}

// SweepRequest batches simulation points. Either Points carries the
// explicit list, or Preset names a server-known run set ("fig9" for the
// Figure 9 configuration sweep, "eval" for the full evaluation's
// deduplicated set).
type SweepRequest struct {
	SchemaVersion string       `json:"schema_version"`
	Preset        string       `json:"preset,omitempty"`
	Points        []RunRequest `json:"points,omitempty"`
}

// SweepPresets lists the valid Preset values.
const SweepPresets = "fig9, eval"

// Normalize validates the envelope and normalizes every point; points
// may omit schema_version (they inherit the envelope's).
func (s *SweepRequest) Normalize() error {
	switch s.SchemaVersion {
	case "":
		s.SchemaVersion = SchemaVersion
	case SchemaVersion:
	default:
		return fmt.Errorf("api: unsupported schema_version %q (want %q)", s.SchemaVersion, SchemaVersion)
	}
	if s.Preset == "" && len(s.Points) == 0 {
		return errors.New("api: sweep carries neither preset nor points")
	}
	if s.Preset != "" && len(s.Points) > 0 {
		return errors.New("api: sweep carries both preset and points")
	}
	switch s.Preset {
	case "", "fig9", "eval":
	default:
		return fmt.Errorf("api: unknown sweep preset %q (valid: %s)", s.Preset, SweepPresets)
	}
	for i := range s.Points {
		if err := s.Points[i].Normalize(); err != nil {
			return fmt.Errorf("api: sweep point %d: %w", i, err)
		}
	}
	return nil
}

// SweepResult carries one RunResult per point, in request order.
type SweepResult struct {
	SchemaVersion string      `json:"schema_version"`
	Results       []RunResult `json:"results"`
}

// MetricsDoc is the envelope around a telemetry snapshot: what the
// server's /v1/metrics endpoint and the tools' -metrics files carry
// (respin-sim upgrades its -metrics file to the full RunResult).
type MetricsDoc struct {
	SchemaVersion string              `json:"schema_version"`
	Metrics       *telemetry.Snapshot `json:"metrics"`
}

// NewMetricsDoc wraps a snapshot in the versioned envelope.
func NewMetricsDoc(snap *telemetry.Snapshot) MetricsDoc {
	return MetricsDoc{SchemaVersion: SchemaVersion, Metrics: snap}
}

// Health is the /v1/healthz document.
type Health struct {
	SchemaVersion string `json:"schema_version"`
	Status        string `json:"status"`
	// InFlight counts requests currently admitted (queued or running);
	// QueueFree is the remaining admission capacity.
	InFlight  int `json:"in_flight"`
	QueueFree int `json:"queue_free"`
	// Draining reports that the server is refusing new work while
	// in-flight runs finish.
	Draining bool `json:"draining,omitempty"`
}

// ErrorDoc is the body of every non-2xx service response.
type ErrorDoc struct {
	SchemaVersion string `json:"schema_version"`
	Error         string `json:"error"`
}

// NewErrorDoc wraps an error message in the versioned envelope.
func NewErrorDoc(msg string) ErrorDoc {
	return ErrorDoc{SchemaVersion: SchemaVersion, Error: msg}
}

// EncodeBytes renders any api document in the canonical encoding:
// two-space indented JSON with a trailing newline. Every byte the
// service or the CLIs emit for a v1 document comes from here, which is
// what makes served-vs-CLI byte identity a structural property.
func EncodeBytes(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// EncodeSweep renders a SweepResult whose results arrive already in the
// canonical encoding (each as EncodeBytes returns it): the output is
// byte-identical to EncodeBytes of the SweepResult holding the decoded
// results, without decoding them. Marshal compacts each raw result and
// the indent pass lays it out at its depth, exactly as for a struct.
func EncodeSweep(results [][]byte) ([]byte, error) {
	raw := make([]json.RawMessage, len(results))
	for i, r := range results {
		raw[i] = r
	}
	return EncodeBytes(struct {
		SchemaVersion string            `json:"schema_version"`
		Results       []json.RawMessage `json:"results"`
	}{SchemaVersion, raw})
}

// decodeStrict decodes exactly one JSON document, rejecting unknown
// fields and any non-whitespace byte after the document.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("api: %w", err)
	}
	// More reads past the whitespace after the document but reports
	// false for a '}' or ']', so look at what it left buffered.
	if dec.More() || trailingData(dec.Buffered()) {
		return errors.New("api: trailing data after document")
	}
	return nil
}

// requireVersion enforces the explicit schema_version the decode side
// demands (Normalize fills it in only for locally-built requests).
func requireVersion(got string) error {
	if got == "" {
		return fmt.Errorf("api: missing schema_version (want %q)", SchemaVersion)
	}
	if got != SchemaVersion {
		return fmt.Errorf("api: unsupported schema_version %q (want %q)", got, SchemaVersion)
	}
	return nil
}

// DecodeRunRequest strictly decodes and normalizes one RunRequest.
func DecodeRunRequest(r io.Reader) (RunRequest, error) {
	var req RunRequest
	if err := decodeStrict(r, &req); err != nil {
		return RunRequest{}, err
	}
	if err := requireVersion(req.SchemaVersion); err != nil {
		return RunRequest{}, err
	}
	if err := req.Normalize(); err != nil {
		return RunRequest{}, err
	}
	return req, nil
}

// DecodeSweepRequest strictly decodes and normalizes one SweepRequest.
func DecodeSweepRequest(r io.Reader) (SweepRequest, error) {
	var req SweepRequest
	if err := decodeStrict(r, &req); err != nil {
		return SweepRequest{}, err
	}
	if err := requireVersion(req.SchemaVersion); err != nil {
		return SweepRequest{}, err
	}
	if err := req.Normalize(); err != nil {
		return SweepRequest{}, err
	}
	return req, nil
}

// DecodeRunResult strictly decodes one RunResult, reading r to EOF; the
// Result payload stays raw. A body in the canonical spelling (see
// decodeCanonicalResult) decodes in one validating pass and its Result
// aliases the read buffer; every other body goes to the encoding/json
// reference decode, which alone decides acceptance and error text.
func DecodeRunResult(r io.Reader) (RunResult, error) {
	data, err := readBody(r)
	if err != nil {
		return decodeRunResultReference(io.MultiReader(bytes.NewReader(data), errReader{err}))
	}
	res, ok := decodeCanonicalResult(data)
	if !ok {
		return decodeRunResultReference(bytes.NewReader(data))
	}
	if err := requireVersion(res.SchemaVersion); err != nil {
		return RunResult{}, err
	}
	return res, nil
}
