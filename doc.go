// Package sensorsafe is a from-scratch Go implementation of SensorSafe
// (Choi, Chakraborty, Charbiwala, Srivastava — UCLA, 2011): a framework for
// privacy-preserving management of personal sensory information.
//
// The implementation lives under internal/:
//
//   - internal/core — the embeddable façade: wire a broker and remote data
//     stores in one process and drive the paper's workflows.
//   - internal/rules — context-aware fine-grained access control: privacy
//     rules (Fig. 4 JSON), the decision engine, and the sensor/context
//     dependency closure.
//   - internal/wavesegment — the wave-segment storage ADT (Fig. 5) and the
//     merge optimizer.
//   - internal/datastore, internal/broker, internal/httpapi — the two
//     server roles and their HTTP APIs/clients.
//   - internal/sensors, internal/inference, internal/phone — the synthetic
//     body-sensor substrate, context inference, and the phone simulator
//     with privacy-rule-aware collection and an energy model.
//   - internal/audit, internal/recommend — the owner-facing access trail
//     and the privacy-rule recommender.
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the test or benchmark that reproduces each paper claim.
package sensorsafe
