package cost

import (
	"math"
	"sync"
	"testing"
)

// synthSample builds a sample whose observed cost follows the true model
// scale·(β·compress + (1−β)·sup) at the chosen layer.
func synthSample(algo string, layer int, compress, sup, beta, scale float64) Sample {
	return Sample{
		Algo: algo, Layer: layer,
		Compress: compress, Sup: sup,
		Observed: scale * (beta*compress + (1-beta)*sup),
	}
}

func TestCalibrationFitRecoversBeta(t *testing.T) {
	const trueBeta, scale = 0.7, 3.5
	cal := NewCalibration(128)
	// Vary the term mix across samples so the 2×2 system is well posed.
	for i := 0; i < 64; i++ {
		c := 0.1 + 0.013*float64(i%61)
		s := 0.9 - 0.011*float64(i%71)
		cal.Add(synthSample("blinks", 1, c, s, trueBeta, scale))
	}
	beta, a, b, ok := cal.Fit()
	if !ok {
		t.Fatal("fit declined on a well-posed window")
	}
	if math.Abs(beta-trueBeta) > 0.02 {
		t.Fatalf("fitted β = %.4f, want ≈ %.2f (a=%.3f b=%.3f)", beta, trueBeta, a, b)
	}
	// The coefficients absorb the scale: a ≈ scale·β, b ≈ scale·(1−β).
	if math.Abs(a-scale*trueBeta) > 0.1 || math.Abs(b-scale*(1-trueBeta)) > 0.1 {
		t.Fatalf("coefficients a=%.3f b=%.3f, want ≈ %.3f / %.3f", a, b, scale*trueBeta, scale*(1-trueBeta))
	}
}

func TestCalibrationFitDeclinesSmallWindow(t *testing.T) {
	cal := NewCalibration(64)
	for i := 0; i < fitMinSamples-1; i++ {
		cal.Add(synthSample("x", 0, 1, 1, 0.5, 1))
	}
	if _, _, _, ok := cal.Fit(); ok {
		t.Fatal("fit must decline below the sample floor")
	}
}

func TestCalibrationDegenerateFallsBackToSharedScale(t *testing.T) {
	cal := NewCalibration(64)
	// compress == sup on every sample: the terms are collinear and no β is
	// identifiable, but the magnitude still is.
	for i := 0; i < 32; i++ {
		v := 0.2 + 0.01*float64(i)
		cal.Add(Sample{Algo: "x", Layer: 0, Compress: v, Sup: v, Observed: 2 * v})
	}
	beta, a, b, ok := cal.Fit()
	if !ok {
		t.Fatal("degenerate fit must fall back, not decline")
	}
	if beta != 0.5 || math.Abs(a-b) > 1e-9 {
		t.Fatalf("shared-scale fallback: β=%.3f a=%.4f b=%.4f", beta, a, b)
	}
}

func TestCalibrationAddIgnoresJunk(t *testing.T) {
	cal := NewCalibration(8)
	cal.Add(Sample{Algo: "x", Layer: 0, Compress: 1, Sup: 1, Observed: 0})
	cal.Add(Sample{Algo: "x", Layer: -1, Compress: 1, Sup: 1, Observed: 1})
	if cal.Len() != 0 || cal.Total() != 0 {
		t.Fatalf("junk samples stored: len=%d total=%d", cal.Len(), cal.Total())
	}
}

func TestCalibrationRingEvicts(t *testing.T) {
	cal := NewCalibration(4)
	for i := 0; i < 10; i++ {
		cal.Add(synthSample("x", 0, 1, 1, 0.5, float64(i+1)))
	}
	if cal.Len() != 4 {
		t.Fatalf("window len = %d, want 4", cal.Len())
	}
	if cal.Total() != 10 {
		t.Fatalf("total = %d, want 10", cal.Total())
	}
}

func TestCalibrationSummaryGroups(t *testing.T) {
	cal := NewCalibration(64)
	for i := 0; i < 10; i++ {
		cal.Add(synthSample("blinks", 1, 0.4, 0.6, 0.5, 1))
		cal.Add(synthSample("rclique", 0, 1, 1, 0.5, 2))
	}
	rows := cal.Summary(0.5)
	if len(rows) != 2 {
		t.Fatalf("summary rows: %+v", rows)
	}
	// Sorted by algo: blinks before rclique.
	if rows[0].Algo != "blinks" || rows[0].Layer != 1 || rows[0].Count != 10 {
		t.Fatalf("row 0: %+v", rows[0])
	}
	// blinks observed == predicted at scale 1 → ratio 1.
	if math.Abs(rows[0].MeanRatio-1) > 1e-9 {
		t.Fatalf("blinks ratio = %f", rows[0].MeanRatio)
	}
	// rclique observed is 2× predicted → ratio 0.5.
	if math.Abs(rows[1].MeanRatio-0.5) > 1e-9 {
		t.Fatalf("rclique ratio = %f", rows[1].MeanRatio)
	}
}

func TestCalibrationNilSafe(t *testing.T) {
	var cal *Calibration
	cal.Add(Sample{})
	if cal.Len() != 0 || cal.Total() != 0 {
		t.Fatal("nil calibration must read zero")
	}
	if _, _, _, ok := cal.Fit(); ok {
		t.Fatal("nil calibration must not fit")
	}
	if cal.Summary(0.5) != nil {
		t.Fatal("nil calibration summary must be nil")
	}
}

// Add, Fit and Summary share the window from concurrent requests; under
// -race this fails if any of them touches the ring outside the lock.
func TestCalibrationConcurrent(t *testing.T) {
	cal := NewCalibration(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c := 0.1 + 0.013*float64((i+w)%61)
				cal.Add(synthSample("x", w%2, c, 1-c/2, 0.7, 2))
				switch i % 3 {
				case 0:
					cal.Fit()
				case 1:
					cal.Summary(0.5)
				}
			}
		}()
	}
	wg.Wait()
	if cal.Len() != 64 || cal.Total() != 2000 {
		t.Fatalf("window len=%d total=%d, want 64/2000", cal.Len(), cal.Total())
	}
	if _, _, _, ok := cal.Fit(); !ok {
		t.Fatal("fit declined on a full window")
	}
}

// BenchmarkCalibrationFit fits a full default-size window, the work the
// audit does per routed query.
func BenchmarkCalibrationFit(b *testing.B) {
	cal := NewCalibration(0)
	for i := 0; i < 512; i++ {
		cal.Add(synthSample("bkws", i%2, 0.1+0.013*float64(i%61), 0.9-0.011*float64(i%71), 0.7, 3.5))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, ok := cal.Fit(); !ok {
			b.Fatal("fit declined")
		}
	}
}
