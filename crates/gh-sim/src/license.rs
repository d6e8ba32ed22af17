//! Repository licenses and license-text detection.
//!
//! The curation framework filters repositories by a fixed set of open-source
//! licenses, both permissive and copyleft (§III-C2): MIT, Apache-2.0, the GPL
//! family, LGPL, MPL-2.0, Creative Commons, Eclipse and BSD. Repositories
//! without any license fall into a legal grey area and are dropped.

use std::fmt;

/// A repository-level license.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum License {
    /// MIT License.
    Mit,
    /// Apache License 2.0.
    Apache2,
    /// GNU General Public License v2.0.
    Gpl2,
    /// GNU General Public License v3.0.
    Gpl3,
    /// GNU Lesser General Public License.
    Lgpl,
    /// Mozilla Public License 2.0.
    Mpl2,
    /// Creative Commons (CC-BY / CC0 family).
    CreativeCommons,
    /// Eclipse Public License.
    Eclipse,
    /// BSD 2-Clause.
    Bsd2,
    /// BSD 3-Clause.
    Bsd3,
    /// No license file at all — the grey area the paper excludes.
    None,
    /// An explicit proprietary/all-rights-reserved license.
    Proprietary,
}

impl License {
    /// Every license variant, in a stable order.
    pub const ALL: [License; 12] = [
        License::Mit,
        License::Apache2,
        License::Gpl2,
        License::Gpl3,
        License::Lgpl,
        License::Mpl2,
        License::CreativeCommons,
        License::Eclipse,
        License::Bsd2,
        License::Bsd3,
        License::None,
        License::Proprietary,
    ];

    /// The licenses the paper's curation framework accepts (its "commonly
    /// used open-source licenses, both permissive and non-permissive").
    pub const ACCEPTED: [License; 10] = [
        License::Mit,
        License::Apache2,
        License::Gpl2,
        License::Gpl3,
        License::Lgpl,
        License::Mpl2,
        License::CreativeCommons,
        License::Eclipse,
        License::Bsd2,
        License::Bsd3,
    ];

    /// SPDX-style identifier.
    pub fn spdx_id(&self) -> &'static str {
        match self {
            License::Mit => "MIT",
            License::Apache2 => "Apache-2.0",
            License::Gpl2 => "GPL-2.0",
            License::Gpl3 => "GPL-3.0",
            License::Lgpl => "LGPL-2.1",
            License::Mpl2 => "MPL-2.0",
            License::CreativeCommons => "CC-BY-4.0",
            License::Eclipse => "EPL-2.0",
            License::Bsd2 => "BSD-2-Clause",
            License::Bsd3 => "BSD-3-Clause",
            License::None => "NONE",
            License::Proprietary => "LicenseRef-Proprietary",
        }
    }

    /// Whether the license is one of the open-source licenses the curation
    /// framework accepts.
    pub fn is_accepted_open_source(&self) -> bool {
        License::ACCEPTED.contains(self)
    }

    /// A short license header comment suitable for the top of a source file.
    pub fn header_text(&self, owner: &str, year: u32) -> String {
        match self {
            License::Mit => format!(
                "// Copyright (c) {year} {owner}\n// SPDX-License-Identifier: MIT\n\
                 // Permission is hereby granted, free of charge, to any person obtaining a copy\n\
                 // of this software and associated documentation files.\n"
            ),
            License::Apache2 => format!(
                "// Copyright {year} {owner}\n// SPDX-License-Identifier: Apache-2.0\n\
                 // Licensed under the Apache License, Version 2.0 (the \"License\");\n\
                 // you may not use this file except in compliance with the License.\n"
            ),
            License::Gpl2 | License::Gpl3 | License::Lgpl => format!(
                "// Copyright (C) {year} {owner}\n// SPDX-License-Identifier: {}\n\
                 // This program is free software: you can redistribute it and/or modify\n\
                 // it under the terms of the GNU General Public License.\n",
                self.spdx_id()
            ),
            License::Mpl2 => format!(
                "// Copyright (c) {year} {owner}\n// SPDX-License-Identifier: MPL-2.0\n\
                 // This Source Code Form is subject to the terms of the Mozilla Public License, v. 2.0.\n"
            ),
            License::CreativeCommons => format!(
                "// (c) {year} {owner} — released under Creative Commons Attribution 4.0\n"
            ),
            License::Eclipse => format!(
                "// Copyright (c) {year} {owner}\n// SPDX-License-Identifier: EPL-2.0\n\
                 // This program and the accompanying materials are made available under the Eclipse Public License 2.0.\n"
            ),
            License::Bsd2 | License::Bsd3 => format!(
                "// Copyright (c) {year}, {owner}\n// SPDX-License-Identifier: {}\n\
                 // Redistribution and use in source and binary forms, with or without modification, are permitted.\n",
                self.spdx_id()
            ),
            License::None => String::new(),
            License::Proprietary => format!(
                "// Copyright (c) {year} {owner}. All rights reserved.\n\
                 // This file contains PROPRIETARY and CONFIDENTIAL information of {owner}\n\
                 // and may not be disclosed, copied or distributed without prior written consent.\n"
            ),
        }
    }

    /// Attempts to identify a license from the text of a LICENSE file or a
    /// source header. Returns `None` when no known license is recognised.
    pub fn detect(text: &str) -> Option<License> {
        let lower = text.to_ascii_lowercase();
        if lower.contains("all rights reserved")
            && (lower.contains("proprietary") || lower.contains("confidential"))
        {
            return Some(License::Proprietary);
        }
        if lower.contains("spdx-license-identifier: mit") || lower.contains("mit license") {
            return Some(License::Mit);
        }
        if lower.contains("apache license") || lower.contains("apache-2.0") {
            return Some(License::Apache2);
        }
        if lower.contains("lesser general public license") || lower.contains("lgpl") {
            return Some(License::Lgpl);
        }
        if lower.contains("gnu general public license") || lower.contains("gpl-3.0") {
            return Some(License::Gpl3);
        }
        if lower.contains("gpl-2.0") {
            return Some(License::Gpl2);
        }
        if lower.contains("mozilla public license") || lower.contains("mpl-2.0") {
            return Some(License::Mpl2);
        }
        if lower.contains("creative commons") || lower.contains("cc-by") {
            return Some(License::CreativeCommons);
        }
        if lower.contains("eclipse public license") || lower.contains("epl-2.0") {
            return Some(License::Eclipse);
        }
        if lower.contains("bsd-3-clause") {
            return Some(License::Bsd3);
        }
        if lower.contains("bsd-2-clause")
            || lower.contains("redistribution and use in source and binary forms")
        {
            return Some(License::Bsd2);
        }
        None
    }
}

impl fmt::Display for License {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spdx_id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_set_excludes_none_and_proprietary() {
        assert!(License::Mit.is_accepted_open_source());
        assert!(License::Gpl3.is_accepted_open_source());
        assert!(!License::None.is_accepted_open_source());
        assert!(!License::Proprietary.is_accepted_open_source());
        assert_eq!(License::ACCEPTED.len(), 10);
    }

    #[test]
    fn header_round_trips_through_detection() {
        for license in License::ACCEPTED {
            let header = license.header_text("Acme Silicon", 2021);
            let detected = License::detect(&header);
            assert!(
                detected.is_some(),
                "header for {license} was not detected: {header}"
            );
        }
    }

    #[test]
    fn proprietary_header_is_detected_as_proprietary() {
        let header = License::Proprietary.header_text("Intel Corporation", 2019);
        assert_eq!(License::detect(&header), Some(License::Proprietary));
    }

    #[test]
    fn unknown_text_detects_nothing() {
        assert_eq!(License::detect("just a module with no legal text"), None);
        assert_eq!(License::detect(""), None);
    }

    #[test]
    fn display_uses_spdx_id() {
        assert_eq!(License::Apache2.to_string(), "Apache-2.0");
        assert_eq!(License::None.to_string(), "NONE");
    }

    #[test]
    fn none_license_has_empty_header() {
        assert!(License::None.header_text("x", 2020).is_empty());
    }
}
