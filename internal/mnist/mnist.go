// Package mnist supplies the dataset plumbing for the DNN experiment of
// the Cpp-Taskflow paper (Section IV-C). The paper trains on the MNIST
// handwritten-digit set (60k 28×28 images); since downloading it is not
// possible here, Synthetic generates a learnable stand-in with identical
// shapes — label-conditioned blob patterns plus noise — so the training
// pipeline exercises the same tensors, batch counts and task graphs.
//
// The package also implements the real IDX file format (the encoding MNIST
// ships in) with full encode/decode round-tripping, so the loaders are the
// genuine article and a user with the original files can substitute them.
package mnist

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
)

// ImageSize is the MNIST image edge length; images are ImageSize² pixels.
const ImageSize = 28

// Pixels is the flattened image dimensionality (784).
const Pixels = ImageSize * ImageSize

// numClasses is the number of digit classes.
const numClasses = 10

// Dataset holds images as float64 rows in [0,1] and their labels.
type Dataset struct {
	Images [][]float64 // each row has Pixels entries
	Labels []uint8
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Labels) }

// Synthetic generates n examples of a learnable classification problem
// with MNIST's shapes: each class paints a Gaussian-ish blob at a
// class-specific location over background noise. Deterministic per seed.
func Synthetic(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{
		Images: make([][]float64, n),
		Labels: make([]uint8, n),
	}
	for i := 0; i < n; i++ {
		label := uint8(rng.Intn(numClasses))
		d.Labels[i] = label
		img := make([]float64, Pixels)
		// Background noise.
		for p := range img {
			img[p] = 0.1 * rng.Float64()
		}
		// Class-specific blob center on a 5x2 grid of anchor points.
		cx := 5 + int(label%5)*4 + rng.Intn(3)
		cy := 8 + int(label/5)*10 + rng.Intn(3)
		for dy := -3; dy <= 3; dy++ {
			for dx := -3; dx <= 3; dx++ {
				x, y := cx+dx, cy+dy
				if x < 0 || x >= ImageSize || y < 0 || y >= ImageSize {
					continue
				}
				dist := float64(dx*dx + dy*dy)
				img[y*ImageSize+x] += 0.9 / (1 + dist/2)
			}
		}
		for p := range img {
			if img[p] > 1 {
				img[p] = 1
			}
		}
		d.Images[i] = img
	}
	return d
}

// IDX magic numbers: unsigned-byte data, 3 dimensions (images) or 1
// dimension (labels).
const (
	magicImages = 0x00000803
	magicLabels = 0x00000801
)

// WriteIDXImages encodes images in the MNIST IDX3 format (pixels quantized
// to bytes).
func WriteIDXImages(w io.Writer, images [][]float64) error {
	hdr := [4]uint32{magicImages, uint32(len(images)), ImageSize, ImageSize}
	for _, v := range hdr {
		if err := binary.Write(w, binary.BigEndian, v); err != nil {
			return err
		}
	}
	buf := make([]byte, Pixels)
	for i, img := range images {
		if len(img) != Pixels {
			return fmt.Errorf("mnist: image %d has %d pixels, want %d", i, len(img), Pixels)
		}
		for p, v := range img {
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			buf[p] = byte(v*255 + 0.5)
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ReadIDXImages decodes an IDX3 image file into [0,1] float rows.
func ReadIDXImages(r io.Reader) ([][]float64, error) {
	var hdr [4]uint32
	for i := range hdr {
		if err := binary.Read(r, binary.BigEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("mnist: short IDX image header: %w", err)
		}
	}
	if hdr[0] != magicImages {
		return nil, fmt.Errorf("mnist: bad image magic %#x", hdr[0])
	}
	if hdr[2] != ImageSize || hdr[3] != ImageSize {
		return nil, fmt.Errorf("mnist: unexpected image size %dx%d", hdr[2], hdr[3])
	}
	n := int(hdr[1])
	images := make([][]float64, n)
	buf := make([]byte, Pixels)
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("mnist: truncated image %d: %w", i, err)
		}
		img := make([]float64, Pixels)
		for p, b := range buf {
			img[p] = float64(b) / 255
		}
		images[i] = img
	}
	return images, nil
}

// WriteIDXLabels encodes labels in the MNIST IDX1 format.
func WriteIDXLabels(w io.Writer, labels []uint8) error {
	hdr := [2]uint32{magicLabels, uint32(len(labels))}
	for _, v := range hdr {
		if err := binary.Write(w, binary.BigEndian, v); err != nil {
			return err
		}
	}
	_, err := w.Write(labels)
	return err
}

// ReadIDXLabels decodes an IDX1 label file.
func ReadIDXLabels(r io.Reader) ([]uint8, error) {
	var hdr [2]uint32
	for i := range hdr {
		if err := binary.Read(r, binary.BigEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("mnist: short IDX label header: %w", err)
		}
	}
	if hdr[0] != magicLabels {
		return nil, fmt.Errorf("mnist: bad label magic %#x", hdr[0])
	}
	labels := make([]uint8, hdr[1])
	if _, err := io.ReadFull(r, labels); err != nil {
		return nil, fmt.Errorf("mnist: truncated labels: %w", err)
	}
	return labels, nil
}
