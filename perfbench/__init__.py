"""Host-time benchmark of the Graphalytics harness; see README.md."""
