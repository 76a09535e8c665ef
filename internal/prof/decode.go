package prof

// This file is the validating counterpart of pproto.go: a minimal
// profile.proto decoder, enough to round-trip what the encoder emits
// (and what any conforming encoder emits for the fields we read). It
// exists so tests and `lockmon check` can verify emitted profiles
// without a proto dependency or shelling out to `go tool pprof`.

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
)

// PValueType is a decoded ValueType (type/unit string pair).
type PValueType struct {
	Type string
	Unit string
}

// PSample is one decoded sample, symbolized through the profile's own
// location/function tables.
type PSample struct {
	// Funcs is the sample's stack as function names, leaf first,
	// inline-expanded in table order.
	Funcs []string
	// Values parallels the profile's sample types.
	Values []int64
	// Labels holds the sample's string labels (e.g. "lock").
	Labels map[string]string
}

// Parsed is the subset of a pprof profile the validator needs.
type Parsed struct {
	SampleTypes   []PValueType
	PeriodType    PValueType
	Period        int64
	TimeNanos     int64
	DurationNanos int64
	DefaultType   string
	Samples       []PSample
}

// Parse decodes a pprof profile.proto blob, gzip-wrapped or raw.
func Parse(data []byte) (*Parsed, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		gz, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("prof: bad gzip header: %w", err)
		}
		raw, err := io.ReadAll(gz)
		if err != nil {
			return nil, fmt.Errorf("prof: gzip body: %w", err)
		}
		data = raw
	}
	return parseProfile(data)
}

// rawSample holds a sample before symbol resolution.
type rawSample struct {
	locIDs []uint64
	values []int64
	labels [][2]uint64 // (key, str) string-table indexes
}

type rawLine struct {
	funcID uint64
}

func parseProfile(data []byte) (*Parsed, error) {
	var (
		strs        []string
		sampleTypes [][2]uint64 // (type, unit) indexes
		periodType  [2]uint64
		samples     []rawSample
		locLines    = map[uint64][]rawLine{}
		funcNames   = map[uint64]uint64{} // function id -> name index
		p           = &Parsed{}
		defaultIdx  uint64
	)
	err := eachField(data, func(field, wire int, v uint64, payload []byte) error {
		switch field {
		case fProfileSampleType:
			vt, err := parseValueType(payload)
			if err != nil {
				return err
			}
			sampleTypes = append(sampleTypes, vt)
		case fProfileSample:
			s, err := parseSample(payload)
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case fProfileLocation:
			id, lines, err := parseLocation(payload)
			if err != nil {
				return err
			}
			locLines[id] = lines
		case fProfileFunction:
			id, name, err := parseFunction(payload)
			if err != nil {
				return err
			}
			funcNames[id] = name
		case fProfileStringTable:
			strs = append(strs, string(payload))
		case fProfileTimeNanos:
			p.TimeNanos = int64(v)
		case fProfileDurationNanos:
			p.DurationNanos = int64(v)
		case fProfilePeriodType:
			vt, err := parseValueType(payload)
			if err != nil {
				return err
			}
			periodType = vt
		case fProfilePeriod:
			p.Period = int64(v)
		case fProfileDefaultType:
			defaultIdx = v
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, vt := range sampleTypes {
		p.SampleTypes = append(p.SampleTypes, PValueType{Type: str(vt[0]), Unit: str(vt[1])})
	}
	p.PeriodType = PValueType{Type: str(periodType[0]), Unit: str(periodType[1])}
	p.DefaultType = str(defaultIdx)
	for _, rs := range samples {
		ps := PSample{Values: rs.values, Labels: map[string]string{}}
		for _, id := range rs.locIDs {
			lines, ok := locLines[id]
			if !ok {
				return nil, fmt.Errorf("prof: sample references unknown location %d", id)
			}
			for _, ln := range lines {
				nameIdx, ok := funcNames[ln.funcID]
				if !ok {
					return nil, fmt.Errorf("prof: location %d references unknown function %d", id, ln.funcID)
				}
				ps.Funcs = append(ps.Funcs, str(nameIdx))
			}
		}
		for _, kv := range rs.labels {
			ps.Labels[str(kv[0])] = str(kv[1])
		}
		p.Samples = append(p.Samples, ps)
	}
	return p, nil
}

func parseValueType(b []byte) ([2]uint64, error) {
	var vt [2]uint64
	err := eachField(b, func(field, wire int, v uint64, _ []byte) error {
		switch field {
		case fValueTypeType:
			vt[0] = v
		case fValueTypeUnit:
			vt[1] = v
		}
		return nil
	})
	return vt, err
}

func parseSample(b []byte) (rawSample, error) {
	var s rawSample
	err := eachField(b, func(field, wire int, v uint64, payload []byte) error {
		switch field {
		case fSampleLocationID:
			ids, err := repeatedUint64(wire, v, payload)
			if err != nil {
				return err
			}
			s.locIDs = append(s.locIDs, ids...)
		case fSampleValue:
			vals, err := repeatedUint64(wire, v, payload)
			if err != nil {
				return err
			}
			for _, u := range vals {
				s.values = append(s.values, int64(u))
			}
		case fSampleLabel:
			var kv [2]uint64
			err := eachField(payload, func(f, _ int, lv uint64, _ []byte) error {
				switch f {
				case fLabelKey:
					kv[0] = lv
				case fLabelStr:
					kv[1] = lv
				}
				return nil
			})
			if err != nil {
				return err
			}
			s.labels = append(s.labels, kv)
		}
		return nil
	})
	return s, err
}

func parseLocation(b []byte) (id uint64, lines []rawLine, err error) {
	err = eachField(b, func(field, wire int, v uint64, payload []byte) error {
		switch field {
		case fLocationID:
			id = v
		case fLocationLine:
			var ln rawLine
			err := eachField(payload, func(f, _ int, lv uint64, _ []byte) error {
				if f == fLineFunctionID {
					ln.funcID = lv
				}
				return nil
			})
			if err != nil {
				return err
			}
			lines = append(lines, ln)
		}
		return nil
	})
	return id, lines, err
}

func parseFunction(b []byte) (id, name uint64, err error) {
	err = eachField(b, func(field, wire int, v uint64, _ []byte) error {
		switch field {
		case fFunctionID:
			id = v
		case fFunctionName:
			name = v
		}
		return nil
	})
	return id, name, err
}

// repeatedUint64 reads a repeated varint field in either encoding:
// packed (one length-delimited payload of varints) or expanded (one
// varint per field occurrence).
func repeatedUint64(wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	if wire != 2 {
		return nil, fmt.Errorf("prof: repeated varint field with wire type %d", wire)
	}
	var out []uint64
	for len(payload) > 0 {
		u, n := uvarint(payload)
		if n <= 0 {
			return nil, fmt.Errorf("prof: truncated packed varint")
		}
		out = append(out, u)
		payload = payload[n:]
	}
	return out, nil
}

// eachField walks one protobuf message, invoking fn per field with the
// varint value (wire 0/1/5, widened) or the payload (wire 2).
func eachField(b []byte, fn func(field, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return fmt.Errorf("prof: truncated field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return fmt.Errorf("prof: truncated varint in field %d", field)
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("prof: truncated fixed64 in field %d", field)
			}
			for i := 0; i < 8; i++ {
				v |= uint64(b[i]) << (8 * i)
			}
			b = b[8:]
		case 2:
			ln, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < ln {
				return fmt.Errorf("prof: truncated length-delimited field %d", field)
			}
			payload = b[n : n+int(ln)]
			b = b[n+int(ln):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("prof: truncated fixed32 in field %d", field)
			}
			for i := 0; i < 4; i++ {
				v |= uint64(b[i]) << (8 * i)
			}
			b = b[4:]
		default:
			return fmt.Errorf("prof: unsupported wire type %d in field %d", wire, field)
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
