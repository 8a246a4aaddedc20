package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary format for model parameters — the body of a training
// snapshot's model section (package checkpoint), never a file of its
// own:
//
//	magic   uint32 "APTM"
//	version uint32 2
//	nameLen uint32, name        (the model family name)
//	count   uint32
//	per parameter: nameLen uint32, name, rows uint32, cols uint32, data
//
// Only parameter values are stored; architecture is reconstructed by
// the caller's model factory, and LoadParams checks that names and
// shapes match. LoadParams reads exactly one parameter set and rejects
// trailing bytes, so a concatenated or padded section cannot load
// silently.

const (
	modelMagic   = 0x4150544d // "APTM"
	modelVersion = 2
)

// SaveParams writes all parameter values to w.
func (m *Model) SaveParams(w io.Writer) error {
	bw := bufio.NewWriter(w)
	params := m.Params()
	hdr := []uint32{modelMagic, modelVersion}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return fmt.Errorf("nn: save header: %w", err)
		}
	}
	modelName := []byte(m.Name)
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(modelName))); err != nil {
		return err
	}
	if _, err := bw.Write(modelName); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(params))); err != nil {
		return fmt.Errorf("nn: save header: %w", err)
	}
	for _, p := range params {
		name := []byte(p.Name)
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(name))); err != nil {
			return err
		}
		if _, err := bw.Write(name); err != nil {
			return err
		}
		dims := []uint32{uint32(p.W.Rows), uint32(p.W.Cols)}
		for _, d := range dims {
			if err := binary.Write(bw, binary.LittleEndian, d); err != nil {
				return err
			}
		}
		if err := binary.Write(bw, binary.LittleEndian, p.W.Data); err != nil {
			return fmt.Errorf("nn: save %s: %w", p.Name, err)
		}
	}
	return bw.Flush()
}

// LoadParams reads parameter values written by SaveParams into this
// model, validating names and shapes.
func (m *Model) LoadParams(r io.Reader) error {
	br := bufio.NewReader(r)
	var hdr [2]uint32
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return fmt.Errorf("nn: load header: %w", err)
		}
	}
	if hdr[0] != modelMagic {
		return fmt.Errorf("nn: bad checkpoint magic %#x", hdr[0])
	}
	if hdr[1] != modelVersion {
		return fmt.Errorf("nn: unsupported checkpoint version %d", hdr[1])
	}
	var nameLen uint32
	if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
		return fmt.Errorf("nn: load header: %w", err)
	}
	if nameLen > 1<<16 {
		return fmt.Errorf("nn: absurd model name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return fmt.Errorf("nn: load header: %w", err)
	}
	if string(name) != m.Name {
		return fmt.Errorf("nn: checkpoint is a %q model, this model is %q", name, m.Name)
	}
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("nn: load header: %w", err)
	}
	params := m.Params()
	if int(count) != len(params) {
		return fmt.Errorf("nn: checkpoint has %d params, model has %d", count, len(params))
	}
	for _, p := range params {
		var nameLen uint32
		if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
			return err
		}
		if nameLen > 1<<16 {
			return fmt.Errorf("nn: absurd name length %d", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return err
		}
		if string(name) != p.Name {
			return fmt.Errorf("nn: checkpoint param %q, model expects %q", name, p.Name)
		}
		var rows, cols uint32
		if err := binary.Read(br, binary.LittleEndian, &rows); err != nil {
			return err
		}
		if err := binary.Read(br, binary.LittleEndian, &cols); err != nil {
			return err
		}
		if int(rows) != p.W.Rows || int(cols) != p.W.Cols {
			return fmt.Errorf("nn: %s shape %dx%d, model expects %dx%d",
				p.Name, rows, cols, p.W.Rows, p.W.Cols)
		}
		if err := binary.Read(br, binary.LittleEndian, &p.W.Data); err != nil {
			return fmt.Errorf("nn: load %s: %w", p.Name, err)
		}
	}
	// Exactly one checkpoint: anything after the last parameter means a
	// concatenated or corrupt file, which must not load silently.
	if _, err := br.ReadByte(); err != io.EOF {
		if err != nil {
			return fmt.Errorf("nn: after last param: %w", err)
		}
		return fmt.Errorf("nn: trailing bytes after last parameter")
	}
	return nil
}
