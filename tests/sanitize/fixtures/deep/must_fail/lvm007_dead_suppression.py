"""Seeded violation: a suppression whose diagnostic no longer fires."""

total = 1 + 1  # lvm-san: ignore[LVM001]
