package datasets

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"cyberhd/internal/hdc"
)

// WriteCSV serializes d: a "# classes: ..." comment line, a header of
// feature names plus "label", then one row per sample with the class name
// in the last column.
func WriteCSV(w io.Writer, d *Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# classes: %s\n", strings.Join(d.ClassNames, ",")); err != nil {
		return err
	}
	cw := csv.NewWriter(bw)
	header := append(append([]string{}, d.FeatureNames...), "label")
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for i := 0; i < d.Len(); i++ {
		x := d.X.Row(i)
		for j, v := range x {
			row[j] = strconv.FormatFloat(float64(v), 'g', -1, 32)
		}
		row[len(row)-1] = d.ClassNames[d.Y[i]]
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV parses a dataset written by WriteCSV. It returns a dataset
// only when it is valid (Validate): a non-finite value is an error.
func ReadCSV(r io.Reader, name string) (*Dataset, error) {
	br := bufio.NewReader(r)
	first, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("datasets: reading class line: %w", err)
	}
	const prefix = "# classes: "
	if !strings.HasPrefix(first, prefix) {
		return nil, fmt.Errorf("datasets: missing class comment line")
	}
	classNames := strings.Split(strings.TrimSpace(strings.TrimPrefix(first, prefix)), ",")
	classIdx := make(map[string]int, len(classNames))
	for i, c := range classNames {
		classIdx[c] = i
	}
	cr := csv.NewReader(br)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("datasets: reading header: %w", err)
	}
	if len(header) < 2 || header[len(header)-1] != "label" {
		return nil, fmt.Errorf("datasets: header must end with label column")
	}
	// The csv reader holds every row to the header's field count.
	featureNames := header[:len(header)-1]
	var data []float32
	var labels []int
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("datasets: reading row %d: %w", len(labels)+1, err)
		}
		for j, f := range rec[:len(featureNames)] {
			v, err := strconv.ParseFloat(f, 32)
			if err != nil {
				return nil, fmt.Errorf("datasets: row %d col %d: %w", len(labels)+1, j, err)
			}
			data = append(data, float32(v))
		}
		c, ok := classIdx[rec[len(rec)-1]]
		if !ok {
			return nil, fmt.Errorf("datasets: row %d has unknown class %q", len(labels)+1, rec[len(rec)-1])
		}
		labels = append(labels, c)
	}
	ds := &Dataset{
		Name:         name,
		FeatureNames: featureNames,
		ClassNames:   classNames,
		X:            &hdc.Matrix{Rows: len(labels), Cols: len(featureNames), Data: data},
		Y:            labels,
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// SaveCSV writes d to path.
func SaveCSV(path string, d *Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteCSV(f, d); err != nil {
		return err
	}
	return f.Sync()
}

// LoadCSV reads a dataset from path; the dataset name is the path's base
// name without extension.
func LoadCSV(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	name := path
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	name = strings.TrimSuffix(name, ".csv")
	return ReadCSV(f, name)
}
