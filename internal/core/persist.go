package core

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/rbf"
	"repro/internal/wavelet"
)

// Trained predictors can be saved and reloaded, so a design team trains
// once per (benchmark, metric) and ships the models. The regression trees
// behind the RBF centres are not persisted: a loaded predictor forecasts
// identically but cannot recompute the Figure 11 importance statistics.

// predictorFile is the serialised form of a Predictor.
type predictorFile struct {
	FormatVersion  int            `json:"format_version"`
	TraceLen       int            `json:"trace_len"`
	Wavelet        string         `json:"wavelet"`
	Selected       []int          `json:"selected"`
	UseDVMFeatures bool           `json:"use_dvm_features"`
	Nets           []*rbf.Network `json:"nets"`
}

const predictorFormatVersion = 1

// waveletByName maps persisted transform names back to implementations.
func waveletByName(name string) (wavelet.Transform, error) {
	for _, w := range []wavelet.Transform{
		wavelet.Haar{}, wavelet.HaarOrthonormal{}, wavelet.Daubechies4{},
	} {
		if w.Name() == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("core: unknown wavelet %q", name)
}

// Save writes the trained predictor as JSON.
func (p *Predictor) Save(w io.Writer) error {
	f := predictorFile{
		FormatVersion:  predictorFormatVersion,
		TraceLen:       p.traceLen,
		Wavelet:        p.opts.Wavelet.Name(),
		Selected:       p.selected,
		UseDVMFeatures: p.opts.UseDVMFeatures,
		Nets:           p.nets,
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// Load restores a predictor saved with Save.
func Load(r io.Reader) (*Predictor, error) {
	var f predictorFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if f.FormatVersion != predictorFormatVersion {
		return nil, fmt.Errorf("core: predictor format %d, want %d", f.FormatVersion, predictorFormatVersion)
	}
	if !wavelet.IsPowerOfTwo(f.TraceLen) {
		return nil, fmt.Errorf("core: persisted trace length %d invalid", f.TraceLen)
	}
	if len(f.Selected) != len(f.Nets) {
		return nil, fmt.Errorf("core: %d selected coefficients but %d networks", len(f.Selected), len(f.Nets))
	}
	if len(f.Nets) == 0 {
		return nil, fmt.Errorf("core: predictor has no networks")
	}
	seen := make(map[int]bool, len(f.Selected))
	for _, pos := range f.Selected {
		if pos < 0 || pos >= f.TraceLen {
			return nil, fmt.Errorf("core: selected coefficient %d outside trace of %d", pos, f.TraceLen)
		}
		if seen[pos] {
			return nil, fmt.Errorf("core: coefficient %d selected twice", pos)
		}
		seen[pos] = true
	}
	for i, net := range f.Nets {
		if net == nil {
			return nil, fmt.Errorf("core: network %d is null", i)
		}
	}
	w, err := waveletByName(f.Wavelet)
	if err != nil {
		return nil, err
	}
	p := &Predictor{
		opts: Options{
			Wavelet:         w,
			NumCoefficients: len(f.Selected),
			UseDVMFeatures:  f.UseDVMFeatures,
		},
		traceLen: f.TraceLen,
		selected: f.Selected,
		nets:     f.Nets,
		// Rebuild the reconstruction basis cache: a loaded predictor must
		// run the same zero-allocation inference path as a trained one.
		basis: waveletBasis(w, f.TraceLen, f.Selected),
	}
	p.basisLo, p.basisHi = basisSpans(p.basis)
	p.initBound()
	return p, nil
}
