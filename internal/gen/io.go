package gen

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/stream"
)

// WriteCSV persists a dataset's arrival stream. The first record is a
// header carrying the dataset name, stream count and window sizes; every
// following record is one tuple in arrival order: src, seq, ts, attrs….
//
// Join conditions contain code (user-defined predicates) and are not
// serialized; readers re-attach the query by dataset key.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"#qdhj", d.Name, strconv.Itoa(d.M)}
	for _, win := range d.Windows {
		header = append(header, strconv.FormatInt(int64(win), 10))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, 0, 8)
	for _, t := range d.Arrivals {
		rec = rec[:0]
		rec = append(rec,
			strconv.Itoa(t.Src),
			strconv.FormatUint(t.Seq, 10),
			strconv.FormatInt(int64(t.TS), 10),
		)
		for _, a := range t.Attrs {
			rec = append(rec, strconv.FormatFloat(a, 'g', -1, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV loads a dataset written by WriteCSV. The returned dataset has no
// Cond; attach the query before running a join.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("gen: reading header: %w", err)
	}
	if len(header) < 4 || header[0] != "#qdhj" {
		return nil, fmt.Errorf("gen: not a qdhj dataset file")
	}
	d := &Dataset{Name: header[1]}
	if d.M, err = strconv.Atoi(header[2]); err != nil {
		return nil, fmt.Errorf("gen: bad stream count: %w", err)
	}
	for _, f := range header[3:] {
		w, err := strconv.ParseInt(f, 10, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("gen: bad window size %q", f)
		}
		d.Windows = append(d.Windows, stream.Time(w))
	}
	if len(d.Windows) != d.M {
		return nil, fmt.Errorf("gen: %d windows for %d streams", len(d.Windows), d.M)
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("gen: reading tuple: %w", err)
		}
		if len(rec) < 3 {
			return nil, fmt.Errorf("gen: short record %v", rec)
		}
		t := &stream.Tuple{}
		if t.Src, err = strconv.Atoi(rec[0]); err != nil || t.Src < 0 || t.Src >= d.M {
			return nil, fmt.Errorf("gen: bad src %q", rec[0])
		}
		if t.Seq, err = strconv.ParseUint(rec[1], 10, 64); err != nil {
			return nil, fmt.Errorf("gen: bad seq %q", rec[1])
		}
		ts, err := strconv.ParseInt(rec[2], 10, 64)
		if err != nil || ts < 0 {
			return nil, fmt.Errorf("gen: bad ts %q", rec[2])
		}
		t.TS = stream.Time(ts)
		for _, f := range rec[3:] {
			a, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("gen: bad attr %q: %w", f, err)
			}
			t.Attrs = append(t.Attrs, a)
		}
		d.Arrivals = append(d.Arrivals, t)
	}
	return d, nil
}
