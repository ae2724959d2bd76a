package flightrec

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
	"unicode/utf8"

	"proteus/internal/controlplane"
	"proteus/internal/telemetry"
	"proteus/internal/tsdb"
)

// The incident log. With Config.Dir set, a run's bundles go to one
// append-only file, <Dir>/incidents.log, and each ring element goes into it
// once: a trigger appends, in one write, the elements of its bundle's
// sections that the log does not hold yet and then the bundle's index, which
// names its sections by ordinal. The reader fills a Bundle from the index and
// the records it names.
//
// The file is logMagic followed by records, each a uvarint length and that
// many bytes of body. A body is a tag byte and its payload:
//
//   - an element of section tag (secTrace … secRuntime): the element's
//     ordinal (uvarint), then the element. telemetry.Event, tsdb.Sample and
//     tsdb.PhaseStat are fixed field sequences of varints and
//     length-prefixed strings (an event's time in microseconds, its kind
//     and cause by name, as its JSON has them); the nested types are
//     compact encoding/json.
//   - a bundle index (tagIndex): the bundle's header and build info, the
//     first ordinal and length of each ring section, and the ordinals of
//     its plan records, ascending.
//
// A ring section's ordinals are its ring's push count (the tracer's Seq for
// the trace, the tsdb log's index for samples and burns), so a window of the
// ring is a range of them; plan records are numbered by the log. A
// section's records are in ascending ordinal order.
//
// Crash safety: a record whose length runs past the end of the file is the
// torn tail of the last write, and the log ends before it. A trigger writes
// its index last, so a cut write loses that trigger's bundle and nothing
// else.

// LogFile is the incident log's file name in Config.Dir.
const LogFile = "incidents.log"

// logMagic opens every incident log.
const logMagic = "proteus incident log 1\n"

// Record tags: the bundle sections in Bundle field order, then the index.
const (
	secTrace = iota
	secCounters
	secSamples
	secBurns
	secPhases
	secPlans
	secRuntime
	nSections
	tagIndex = nSections
)

// incidentLog writes a run's incident log. Its mutex is taken before the
// recorder's, and held by a trigger from its snapshot through its write, so
// bundles reach the log in Seq order and each logs what the one before it
// did not; Tick never waits for it.
type incidentLog struct {
	mu sync.Mutex
	logState
	// err is the most recent failed append.
	err error
	// buf is the write buffer every append reuses.
	buf []byte
}

// logState is the log as its writer left it. The zero value is a log not
// yet started: the next append starts the file afresh.
type logState struct {
	// size is the log's length in bytes.
	size int64
	// next[s] is the ordinal past the newest element of section s in the
	// log. A ring section's window only moves forward, so each element a
	// bundle holds from its first ordinal up to next is in the log already.
	// For plans it is the ordinal the next new record takes.
	next [nSections]uint64
	// plans are the last logged bundle's plan records.
	plans []planOrd
}

// planOrd is a logged plan record's controller Seq and log ordinal.
type planOrd struct {
	seq int
	ord uint64
}

// writeLog writes a trigger's records to the log file at off. A variable so
// a test can make a write fail part-way.
var writeLog = (*os.File).WriteAt

// append logs bundle b, whose ring sections start at the ordinals first,
// creating dir if it does not exist. Called under l.mu.
func (l *incidentLog) append(dir string, b *Bundle, first *[nSections]uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, LogFile), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	st, err := l.write(f, b, first)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		l.logState = st
	}
	return err
}

// write writes bundle b's records to f, the log file, in one write and
// returns the log's state after it. When f is not as the last append left
// it — a run's first append, or a file removed or cut behind the writer's
// back — the log starts afresh with the whole bundle. A failed write is
// truncated away, and the caller keeps the state as it was, so the next
// append writes the same records again; a file the truncation could not
// restore starts afresh on the next append.
func (l *incidentLog) write(f *os.File, b *Bundle, first *[nSections]uint64) (logState, error) {
	fi, err := f.Stat()
	if err != nil {
		return logState{}, err
	}
	st := l.logState
	if fi.Size() != st.size {
		st = logState{}
	}
	l.buf = l.buf[:0]
	if st.size == 0 {
		l.buf = append(l.buf, logMagic...)
	}
	if l.buf, err = st.appendBundle(l.buf, b, first); err != nil {
		return st, err
	}
	if st.size == 0 && fi.Size() > 0 {
		if err := f.Truncate(0); err != nil {
			return st, err
		}
	}
	if _, err := writeLog(f, l.buf, st.size); err != nil {
		_ = f.Truncate(st.size) // best effort: see above
		return st, err
	}
	st.size += int64(len(l.buf))
	return st, nil
}

// appendBundle appends the records bundle b needs that the log lacks — its
// ring sections' elements from next on and its plan records new since the
// last bundle — then b's index, and advances st past them.
func (st *logState) appendBundle(dst []byte, b *Bundle, first *[nSections]uint64) ([]byte, error) {
	var errs [nSections]error
	dst, errs[secTrace] = appendElems(st, dst, secTrace, first, b.TraceEvents, appendTraceRecord)
	dst, errs[secCounters] = appendElems(st, dst, secCounters, first, b.Counters, appendCompact[CounterSnap])
	dst, errs[secSamples] = appendElems(st, dst, secSamples, first, b.Samples, appendSampleRecord)
	dst, errs[secBurns] = appendElems(st, dst, secBurns, first, b.Burns, appendCompact[tsdb.BurnEvent])
	dst, errs[secPhases] = appendElems(st, dst, secPhases, first, b.Phases, appendPhaseRecord)
	dst, errs[secPlans] = st.appendPlans(dst, b.Plans)
	dst, errs[secRuntime] = appendElems(st, dst, secRuntime, first, b.Runtime, appendCompact[RuntimeSnap])
	if err := cmp.Or(errs[:]...); err != nil {
		return dst, err
	}
	return appendIndex(dst, b, first, st.plans), nil
}

// appendElems appends the elements of ring section s, the window vs from
// ordinal first[s], that the log lacks.
func appendElems[T any](st *logState, dst []byte, s int, first *[nSections]uint64, vs []T, enc func([]byte, *T) ([]byte, error)) ([]byte, error) {
	if len(vs) == 0 {
		return dst, nil
	}
	from, end := first[s], first[s]+uint64(len(vs))
	for o := max(from, st.next[s]); o < end; o++ {
		at := len(dst)
		dst = binary.AppendUvarint(append(dst, 0, byte(s)), o)
		var err error
		if dst, err = enc(dst, &vs[o-from]); err != nil {
			return dst, err
		}
		dst = endRecord(dst, at)
	}
	st.next[s] = max(st.next[s], end)
	return dst, nil
}

// appendPlans logs the plan records the last bundle did not hold and makes
// plans the last bundle's. A record the controller numbered (Seq > 0; it
// never changes a record it has handed out) keeps the ordinal it had in the
// last bundle while the bundle's ordinals stay ascending; any other is
// logged anew.
func (st *logState) appendPlans(dst []byte, plans []controlplane.PlanRecord) ([]byte, error) {
	kept := make([]planOrd, len(plans))
	for i := range plans {
		seq := plans[i].Seq
		j := slices.IndexFunc(st.plans, func(p planOrd) bool { return p.seq == seq })
		if seq > 0 && j >= 0 && (i == 0 || st.plans[j].ord > kept[i-1].ord) {
			kept[i] = st.plans[j]
			continue
		}
		kept[i] = planOrd{seq, st.next[secPlans]}
		st.next[secPlans]++
		at := len(dst)
		dst = binary.AppendUvarint(append(dst, 0, secPlans), kept[i].ord)
		var err error
		if dst, err = appendCompact(dst, &plans[i]); err != nil {
			return dst, err
		}
		dst = endRecord(dst, at)
	}
	st.plans = kept
	return dst, nil
}

// appendIndex appends bundle b's index record.
func appendIndex(dst []byte, b *Bundle, first *[nSections]uint64, plans []planOrd) []byte {
	at := len(dst)
	dst = appendStr(append(dst, 0, tagIndex), b.ID)
	dst = binary.AppendVarint(dst, int64(b.Seq))
	dst = binary.AppendVarint(dst, b.AtNS)
	dst = appendStr(dst, b.Reason)
	dst = appendStr(dst, b.Detail)
	dst = binary.AppendVarint(dst, int64(b.Family))
	dst = binary.AppendVarint(dst, int64(b.Device))
	bi := &b.Build
	for _, s := range [...]string{bi.GoVersion, bi.Path, bi.Version, bi.Revision, bi.Time} {
		dst = appendStr(dst, s)
	}
	dst = appendBool(dst, bi.Modified)
	for s, n := range sectionLens(b) {
		if s != secPlans {
			dst = binary.AppendUvarint(binary.AppendUvarint(dst, first[s]), uint64(n))
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(plans)))
	for _, p := range plans {
		dst = binary.AppendUvarint(dst, p.ord)
	}
	return endRecord(dst, at)
}

// sectionLens returns the length of each of b's sections.
func sectionLens(b *Bundle) [nSections]int {
	return [nSections]int{
		secTrace: len(b.TraceEvents), secCounters: len(b.Counters), secSamples: len(b.Samples),
		secBurns: len(b.Burns), secPhases: len(b.Phases), secPlans: len(b.Plans), secRuntime: len(b.Runtime),
	}
}

// endRecord completes the record whose body starts one byte past at, where
// a one-byte length was reserved, moving the body along when its length
// needs more bytes.
func endRecord(dst []byte, at int) []byte {
	n := len(dst) - at - 1
	if n < 0x80 {
		dst[at] = byte(n)
		return dst
	}
	var pre [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(pre[:], uint64(n))
	dst = append(dst, pre[1:k]...)
	copy(dst[at+k:], dst[at+1:at+1+n])
	copy(dst[at:], pre[:k])
	return dst
}

func appendStr(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// appendCompact is the record of a nested type: its encoding/json encoding.
func appendCompact[T any](dst []byte, v *T) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(dst, b...), err
}

// appendTraceRecord, appendSampleRecord and appendPhaseRecord are the
// records of the flat types that fill most of a log; traceElem, sampleElem
// and phaseElem read them back.
func appendTraceRecord(dst []byte, ev *telemetry.Event) ([]byte, error) {
	if !ev.Kind.Valid() || !ev.Cause.Valid() {
		return dst, fmt.Errorf("trace event %d: kind %d or cause %d outside its enum", ev.Seq, ev.Kind, ev.Cause)
	}
	dst = binary.AppendVarint(dst, ev.At.Microseconds())
	dst = binary.AppendUvarint(dst, ev.Seq)
	dst = appendStr(dst, ev.Kind.String())
	dst = binary.AppendUvarint(dst, ev.Query)
	for _, v := range [...]int32{ev.Family, ev.Device, ev.Batch, ev.Plan, ev.Episode} {
		dst = binary.AppendVarint(dst, int64(v))
	}
	return appendStr(dst, ev.Cause.String()), nil
}

func appendSampleRecord(dst []byte, s *tsdb.Sample) ([]byte, error) {
	dst = binary.AppendVarint(dst, int64(s.At))
	dst = binary.AppendVarint(dst, int64(s.Device))
	dst = appendBool(dst, s.Up)
	for _, v := range [...]int{s.QueueDepth, s.BatchSize, s.UtilMilli} {
		dst = binary.AppendVarint(dst, int64(v))
	}
	dst = appendStr(dst, s.Variant)
	dst = binary.AppendVarint(dst, int64(s.SatMilli))
	return appendBool(dst, s.Pressured), nil
}

func appendPhaseRecord(dst []byte, p *tsdb.PhaseStat) ([]byte, error) {
	if !p.Valid() {
		return dst, fmt.Errorf("phase row %q/%q: scope or phase outside tsdb's", p.Scope, p.Phase)
	}
	dst = appendStr(dst, p.Scope)
	dst = binary.AppendVarint(dst, int64(p.Index))
	dst = appendStr(dst, p.Phase)
	dst = binary.AppendUvarint(dst, p.Count)
	for _, v := range [...]int64{p.MeanUS, p.P50US, p.P95US, p.P99US, p.MaxUS} {
		dst = binary.AppendVarint(dst, v)
	}
	return dst, nil
}

func traceElem(rec []byte, ev *telemetry.Event) error {
	rd := recReader{b: rec}
	at, atOK := telemetry.DurationFromMicros(rd.varint())
	seq := rd.uvarint()
	kind, kindOK := telemetry.KindByName(rd.str())
	*ev = telemetry.Event{At: at, Seq: seq, Kind: kind, Query: rd.uvarint(),
		Family: rd.int32(), Device: rd.int32(), Batch: rd.int32(), Plan: rd.int32(), Episode: rd.int32()}
	var causeOK bool
	ev.Cause, causeOK = telemetry.CauseByName(rd.str())
	rd.bad = rd.bad || !atOK || !kindOK || !causeOK
	return rd.end()
}

func sampleElem(rec []byte, s *tsdb.Sample) error {
	rd := recReader{b: rec}
	*s = tsdb.Sample{At: time.Duration(rd.varint()), Device: rd.int(), Up: rd.bool(), QueueDepth: rd.int(), BatchSize: rd.int(),
		UtilMilli: rd.int(), Variant: rd.str(), SatMilli: rd.int(), Pressured: rd.bool()}
	return rd.end()
}

func phaseElem(rec []byte, p *tsdb.PhaseStat) error {
	rd := recReader{b: rec}
	*p = tsdb.PhaseStat{Scope: rd.str(), Index: rd.int(), Phase: rd.str(), Count: rd.uvarint(),
		MeanUS: rd.varint(), P50US: rd.varint(), P95US: rd.varint(), P99US: rd.varint(), MaxUS: rd.varint()}
	rd.bad = rd.bad || !p.Valid()
	return rd.end()
}

// unmarshalElem reads back the record of a nested type.
func unmarshalElem[T any](rec []byte, v *T) error { return json.Unmarshal(rec, v) }

var errBadRecord = errors.New("malformed record")

// recReader reads a record's fields in order. A field that is cut short or
// out of range for its type marks the record bad.
type recReader struct {
	b   []byte
	bad bool
}

func (r *recReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.bad, r.b = true, nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *recReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.bad, r.b = true, nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *recReader) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.bad = true
	}
	return int(v)
}

func (r *recReader) int32() int32 {
	v := r.varint()
	if int64(int32(v)) != v {
		r.bad = true
	}
	return int32(v)
}

func (r *recReader) bool() bool {
	if len(r.b) == 0 || r.b[0] > 1 {
		r.bad, r.b = true, nil
		return false
	}
	v := r.b[0] == 1
	r.b = r.b[1:]
	return v
}

// str reads a length-prefixed string; a length past the record's end marks
// it bad and allocates nothing. Each byte of invalid UTF-8 reads as U+FFFD,
// as encoding/json reads the nested records' strings.
func (r *recReader) str() string {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.bad, r.b = true, nil
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	if !utf8.ValidString(s) {
		s = string([]rune(s))
	}
	return s
}

// end reports whether the record was read whole and well formed.
func (r *recReader) end() error {
	if r.bad || len(r.b) != 0 {
		return errBadRecord
	}
	return nil
}

// Log is an incident log read back: its bundles' indexes in log order and
// every element record, by section, in ascending ordinal order. Records are
// views of the bytes it was parsed from.
type Log struct {
	bundles []logIndex
	elems   [nSections][]logElem
}

// logIndex is one bundle's index record: its header and build info, and
// where its sections are in the log.
type logIndex struct {
	hdr          Bundle
	first, count [nSections]uint64
	plans        []uint64
}

type logElem struct {
	ord uint64
	rec []byte
}

// ReadLog reads the incident log in dir.
func ReadLog(dir string) (*Log, error) {
	data, err := os.ReadFile(filepath.Join(dir, LogFile))
	if err != nil {
		return nil, err
	}
	l, err := ParseLog(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Join(dir, LogFile), err)
	}
	return l, nil
}

// ParseLog reads an incident log from its bytes. A record cut short — the
// torn tail of a write a crash interrupted — ends the log without an error,
// and with it the bundle whose write it was; a record that is whole but
// malformed is an error.
func ParseLog(data []byte) (*Log, error) {
	if !bytes.HasPrefix(data, []byte(logMagic)) {
		if bytes.HasPrefix([]byte(logMagic), data) {
			return &Log{}, nil // cut inside the magic: no bundle yet
		}
		return nil, errors.New("not an incident log")
	}
	l := &Log{}
	for off := len(logMagic); off < len(data); {
		n, k := binary.Uvarint(data[off:])
		if k <= 0 || n > uint64(len(data)-off-k) {
			break // torn tail
		}
		body := data[off+k : off+k+int(n)]
		if err := l.add(body); err != nil {
			return nil, fmt.Errorf("record at byte %d: %w", off, err)
		}
		off += k + int(n)
	}
	return l, nil
}

// add adds one record.
func (l *Log) add(body []byte) error {
	if len(body) == 0 || body[0] > tagIndex {
		return errBadRecord
	}
	s, rd := int(body[0]), recReader{b: body[1:]}
	if s != tagIndex {
		o := rd.uvarint()
		if rd.bad {
			return errBadRecord
		}
		if es := l.elems[s]; len(es) > 0 && es[len(es)-1].ord >= o {
			return fmt.Errorf("section %d ordinal %d out of order", s, o)
		}
		l.elems[s] = append(l.elems[s], logElem{o, rd.b})
		return nil
	}
	var x logIndex
	h := &x.hdr
	h.ID, h.Seq, h.AtNS, h.Reason, h.Detail, h.Family, h.Device = rd.str(), rd.int(), rd.varint(), rd.str(), rd.str(), rd.int(), rd.int()
	bi := &h.Build
	bi.GoVersion, bi.Path, bi.Version, bi.Revision, bi.Time, bi.Modified = rd.str(), rd.str(), rd.str(), rd.str(), rd.str(), rd.bool()
	for s := range nSections {
		if s != secPlans {
			x.first[s], x.count[s] = rd.uvarint(), rd.uvarint()
		}
	}
	n := rd.uvarint()
	for i := uint64(0); i < n && !rd.bad; i++ {
		x.plans = append(x.plans, rd.uvarint())
	}
	if err := rd.end(); err != nil {
		return err
	}
	l.bundles = append(l.bundles, x)
	return nil
}

// IDs returns the IDs of the log's bundles in log order: the order of their
// triggers.
func (l *Log) IDs() []string {
	ids := make([]string, len(l.bundles))
	for i := range l.bundles {
		ids[i] = l.bundles[i].hdr.ID
	}
	return ids
}

// Bundle reads back the bundle with ID id: its header from its index, and
// each section from the records the index names.
func (l *Log) Bundle(id string) (*Bundle, error) {
	i := slices.IndexFunc(l.bundles, func(x logIndex) bool { return x.hdr.ID == id })
	if i < 0 {
		return nil, fmt.Errorf("no bundle %q in the incident log", id)
	}
	x := &l.bundles[i]
	b := x.hdr
	if err := cmp.Or(
		section(l, x, secTrace, &b.TraceEvents, traceElem),
		section(l, x, secCounters, &b.Counters, unmarshalElem[CounterSnap]),
		section(l, x, secSamples, &b.Samples, sampleElem),
		section(l, x, secBurns, &b.Burns, unmarshalElem[tsdb.BurnEvent]),
		section(l, x, secPhases, &b.Phases, phaseElem),
		section(l, x, secPlans, &b.Plans, unmarshalElem[controlplane.PlanRecord]),
		section(l, x, secRuntime, &b.Runtime, unmarshalElem[RuntimeSnap]),
	); err != nil {
		return nil, fmt.Errorf("bundle %q: %w", id, err)
	}
	return &b, nil
}

// section appends to vs the elements of bundle x's section s, decoded: the
// records of a ring section's ordinal range, or of the plan ordinals, which
// must ascend.
func section[T any](l *Log, x *logIndex, s int, vs *[]T, decode func([]byte, *T) error) error {
	es := l.elems[s]
	find := func(o uint64) int {
		i, _ := slices.BinarySearchFunc(es, o, func(e logElem, o uint64) int { return cmp.Compare(e.ord, o) })
		return i
	}
	add := func(i int, o uint64) error {
		if i >= len(es) || es[i].ord != o {
			return fmt.Errorf("section %d: no record %d", s, o)
		}
		var v T
		if err := decode(es[i].rec, &v); err != nil {
			return fmt.Errorf("section %d record %d: %w", s, o, err)
		}
		*vs = append(*vs, v)
		return nil
	}
	if s == secPlans {
		for k, o := range x.plans {
			if k > 0 && o <= x.plans[k-1] {
				return errors.New("plan ordinals out of order")
			}
			if err := add(find(o), o); err != nil {
				return err
			}
		}
		return nil
	}
	// Each record added is one more of es, so a count past them fails
	// before k can outgrow the slice.
	i := find(x.first[s])
	for k := uint64(0); k < x.count[s]; k++ {
		if err := add(i+int(k), x.first[s]+k); err != nil {
			return err
		}
	}
	return nil
}
