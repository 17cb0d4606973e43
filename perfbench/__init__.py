"""Host-time benchmark of the LVM simulator (see README.md)."""
