package mnist

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestSyntheticShapes(t *testing.T) {
	d := Synthetic(100, 1)
	if d.Len() != 100 {
		t.Fatalf("Len = %d", d.Len())
	}
	classes := map[uint8]bool{}
	for i, img := range d.Images {
		if len(img) != Pixels {
			t.Fatalf("image %d has %d pixels", i, len(img))
		}
		for p, v := range img {
			if v < 0 || v > 1 {
				t.Fatalf("image %d pixel %d = %v out of [0,1]", i, p, v)
			}
		}
		if d.Labels[i] >= numClasses {
			t.Fatalf("label %d out of range", d.Labels[i])
		}
		classes[d.Labels[i]] = true
	}
	if len(classes) < 5 {
		t.Fatalf("only %d classes in 100 samples", len(classes))
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a := Synthetic(50, 7)
	b := Synthetic(50, 7)
	for i := range a.Images {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("labels differ across same-seed runs")
		}
		for p := range a.Images[i] {
			if a.Images[i][p] != b.Images[i][p] {
				t.Fatal("pixels differ across same-seed runs")
			}
		}
	}
	c := Synthetic(50, 8)
	same := true
	for i := range a.Images {
		if a.Labels[i] != c.Labels[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical labels")
	}
}

func TestSyntheticClassesAreSeparable(t *testing.T) {
	// A nearest-centroid classifier must beat random guessing by a wide
	// margin, or the DNN experiment would be meaningless.
	train := Synthetic(500, 3)
	test := Synthetic(200, 4)
	centroids := make([][]float64, numClasses)
	counts := make([]int, numClasses)
	for c := range centroids {
		centroids[c] = make([]float64, Pixels)
	}
	for i, img := range train.Images {
		c := train.Labels[i]
		counts[c]++
		for p, v := range img {
			centroids[c][p] += v
		}
	}
	for c := range centroids {
		if counts[c] == 0 {
			continue
		}
		for p := range centroids[c] {
			centroids[c][p] /= float64(counts[c])
		}
	}
	correct := 0
	for i, img := range test.Images {
		best, bestD := -1, 1e18
		for c := range centroids {
			var d2 float64
			for p, v := range img {
				diff := v - centroids[c][p]
				d2 += diff * diff
			}
			if d2 < bestD {
				bestD, best = d2, c
			}
		}
		if uint8(best) == test.Labels[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(test.Len())
	if acc < 0.5 {
		t.Fatalf("nearest-centroid accuracy = %.2f, want >= 0.5 (dataset not learnable)", acc)
	}
}

func TestIDXImagesRoundTrip(t *testing.T) {
	d := Synthetic(30, 5)
	var buf bytes.Buffer
	if err := WriteIDXImages(&buf, d.Images); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIDXImages(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 {
		t.Fatalf("decoded %d images", len(got))
	}
	for i := range got {
		for p := range got[i] {
			// Quantization to bytes loses at most 1/510.
			diff := got[i][p] - d.Images[i][p]
			if diff < 0 {
				diff = -diff
			}
			if diff > 1.0/255 {
				t.Fatalf("image %d pixel %d drifted by %v", i, p, diff)
			}
		}
	}
}

func TestIDXLabelsRoundTrip(t *testing.T) {
	labels := []uint8{0, 1, 2, 9, 5, 5, 3}
	var buf bytes.Buffer
	if err := WriteIDXLabels(&buf, labels); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIDXLabels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(labels) {
		t.Fatalf("decoded %d labels", len(got))
	}
	for i := range labels {
		if got[i] != labels[i] {
			t.Fatalf("label %d = %d, want %d", i, got[i], labels[i])
		}
	}
}

func TestIDXErrors(t *testing.T) {
	if _, err := ReadIDXImages(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty image stream accepted")
	}
	if _, err := ReadIDXLabels(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Fatal("short label stream accepted")
	}
	var buf bytes.Buffer
	WriteIDXLabels(&buf, []uint8{1})
	if _, err := ReadIDXImages(&buf); err == nil {
		t.Fatal("label magic accepted as image file")
	}
	// Truncated image payload.
	buf.Reset()
	d := Synthetic(2, 1)
	WriteIDXImages(&buf, d.Images)
	trunc := buf.Bytes()[:buf.Len()-10]
	if _, err := ReadIDXImages(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated image stream accepted")
	}
	// Bad image row width.
	if err := WriteIDXImages(&buf, [][]float64{{1, 2, 3}}); err == nil {
		t.Fatal("short image row accepted")
	}
}

// Property: label round-trip is exact for arbitrary byte slices (mod 10).
func TestQuickLabelRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		labels := make([]uint8, len(raw))
		for i, b := range raw {
			labels[i] = b % 10
		}
		var buf bytes.Buffer
		if err := WriteIDXLabels(&buf, labels); err != nil {
			return false
		}
		got, err := ReadIDXLabels(&buf)
		if err != nil || len(got) != len(labels) {
			return false
		}
		for i := range labels {
			if got[i] != labels[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
