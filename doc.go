// Package repro is a from-scratch Go reproduction of "Accelerating
// Function-Centric Applications by Discovering, Distributing, and
// Retaining Reusable Context in Workflow Systems" (Phung et al.,
// HPDC '24).
//
// The public API lives in the taskvine package; the engine, language,
// serialization, simulation, and experiment substrates live under
// internal/. See README.md for a tour, DESIGN.md for the system
// inventory, and EXPERIMENTS.md for paper-versus-measured results.
// cmd/vinebench regenerates every table and figure of the paper's
// evaluation; bench/ (BENCHMARK.json) measures the engine itself.
package repro
